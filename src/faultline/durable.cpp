#include "faultline/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/le_bytes.hpp"

namespace hpas::faultline {
namespace {

/// AtomicFile's write buffer: a typical output is one write() call, and a
/// large CSV export stays bounded in memory.
constexpr std::size_t kFlushBytes = std::size_t{1} << 20;

[[noreturn]] void fail(const std::string& what, const std::string& path,
                       int err = errno) {
  throw SystemError(what + " " + path + ": " + std::strerror(err));
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string out;
  char buf[1 << 16];
  ssize_t n = 0;
  while ((n = ::read(fd, buf, sizeof(buf))) != 0) {
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      ::close(fd);
      return std::nullopt;
    }
  }
  ::close(fd);
  return out;
}

Json load_json_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw SystemError("cannot read " + path);
  return Json::parse(*text);
}

void write_all(Domain d, int fd, const std::string& path,
               std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t w = write(d, fd, bytes.data() + done, bytes.size() - done);
    if (w >= 0) {
      done += static_cast<std::size_t>(w);
    } else if (errno != EINTR) {
      fail("write failed on", path);
    }
  }
}

void sync_file(Domain d, int fd, const std::string& path) {
  if (fsync(d, fd) != 0) fail("fsync failed on", path);
}

void sync_parent_dir(Domain d, const std::string& path) {
  const auto parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("cannot open directory", dir);
  const int rc = fsync(d, fd);
  const int err = errno;
  ::close(fd);
  // EINVAL: this filesystem cannot fsync a directory; nothing to sync.
  if (rc != 0 && err != EINVAL) fail("fsync failed on directory", dir, err);
}

AtomicFile::AtomicFile(Domain d, std::string path)
    : domain_(d), path_(std::move(path)), tmp_(path_ + ".tmp") {
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) fail("cannot open", tmp_);
}

AtomicFile::~AtomicFile() {
  if (fd_ >= 0) ::close(fd_);
  if (!committed_) ::unlink(tmp_.c_str());
}

void AtomicFile::append(std::string_view bytes) {
  require(fd_ >= 0, "AtomicFile: append after commit");
  if (buffer_.size() + bytes.size() < kFlushBytes) {
    buffer_.append(bytes);
    return;
  }
  write_all(domain_, fd_, tmp_, buffer_);
  buffer_.clear();
  write_all(domain_, fd_, tmp_, bytes);
}

void AtomicFile::commit() {
  require(fd_ >= 0, "AtomicFile: commit twice");
  write_all(domain_, fd_, tmp_, buffer_);
  // fsync before rename: otherwise a crash after the rename can leave
  // the final name pointing at bytes that never reached the disk.
  sync_file(domain_, fd_, tmp_);
  const int rc = ::close(fd_);
  fd_ = -1;
  if (rc != 0) fail("close failed on", tmp_);
  if (rename_file(domain_, tmp_.c_str(), path_.c_str()) != 0)
    fail("cannot rename " + tmp_ + " to", path_);
  committed_ = true;
  sync_parent_dir(domain_, path_);
}

void write_file_atomic(Domain d, const std::string& path,
                       std::string_view bytes) {
  AtomicFile file(d, path);
  file.append(bytes);
  file.commit();
}

void append_frame(std::string& out, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
  put_u32(out, crc32(payload));
}

FrameView check_frame(std::string_view bytes, std::size_t off,
                      std::uint32_t max_len) {
  FrameView view;
  const auto* data = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t left = off < bytes.size() ? bytes.size() - off : 0;
  const std::uint32_t len = left < 4 ? 0 : get_u32(data + off);
  if (left < 4) {
    view.status = FrameStatus::kTornLength;
  } else if (len > max_len) {
    view.status = FrameStatus::kImplausibleLength;
  } else if (left < 8 + std::size_t{len}) {
    view.status = FrameStatus::kTornPayload;
  } else {
    view.payload = bytes.substr(off + 4, len);
    view.next = off + 8 + len;
    if (crc32(view.payload) != get_u32(data + off + 4 + len))
      view.status = FrameStatus::kBadCrc;
  }
  return view;
}

const char* frame_damage(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: break;
    case FrameStatus::kTornLength: return "torn frame length at tail";
    case FrameStatus::kImplausibleLength: return "implausible frame length";
    case FrameStatus::kTornPayload: return "torn frame payload at tail";
    case FrameStatus::kBadCrc: return "frame CRC mismatch";
  }
  return "intact frame";
}

}  // namespace hpas::faultline
