// durable -- the one path every durable byte of HPAS leaves through:
// sweep/search outputs, journals, dataset shards, manifests and CSVs,
// and the server's result spool, all via the faultline wrappers. A file
// is published as: write `<path>.tmp`, fsync, rename over `path`, fsync
// the directory. Records are `len:u32 | payload | crc32:u32` frames
// (little-endian). The server spool runs in Domain::kCache, everything
// else in Domain::kJournal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "faultline/faultline.hpp"

namespace hpas {
class Json;
}

namespace hpas::faultline {

/// Whole-file read; nullopt when the file cannot be opened or read.
std::optional<std::string> read_file(const std::string& path);

/// Throws SystemError("cannot read <path>"); parse errors are ConfigError.
Json load_json_file(const std::string& path);

/// Writes all of `bytes`, retrying short writes and EINTR; any other
/// error throws SystemError naming `path`.
void write_all(Domain d, int fd, const std::string& path,
               std::string_view bytes);

/// fsync(fd) or throw SystemError naming `path`.
void sync_file(Domain d, int fd, const std::string& path);

/// fsyncs the directory holding `path`, so a file created or renamed
/// there keeps its name across a power loss.
void sync_parent_dir(Domain d, const std::string& path);

/// A file published whole or not at all. append() buffers into
/// `<path>.tmp`; commit() fsyncs, renames and fsyncs the directory. An
/// uncommitted AtomicFile removes the temporary and leaves `path` as it
/// was.
class AtomicFile {
 public:
  AtomicFile(Domain d, std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  void append(std::string_view bytes);
  void commit();

 private:
  Domain domain_;
  std::string path_;
  std::string tmp_;
  int fd_ = -1;
  std::string buffer_;
  bool committed_ = false;
};

void write_file_atomic(Domain d, const std::string& path,
                       std::string_view bytes);

void append_frame(std::string& out, std::string_view payload);

enum class FrameStatus : std::uint8_t {
  kOk,
  kTornLength,         ///< fewer than 4 bytes left for the length
  kImplausibleLength,  ///< length above the caller's cap: not a frame
  kTornPayload,        ///< payload or CRC runs past the end
  kBadCrc,
};

struct FrameView {
  FrameStatus status = FrameStatus::kOk;
  std::string_view payload;  ///< set for kOk and kBadCrc
  std::size_t next = 0;      ///< offset past the frame, likewise
};

/// Validates the frame at `bytes[off]`, whose payload may be at most
/// `max_len` bytes.
FrameView check_frame(std::string_view bytes, std::size_t off,
                      std::uint32_t max_len);

/// Human-readable damage for a status other than kOk.
const char* frame_damage(FrameStatus status);

}  // namespace hpas::faultline
