#include "runner/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <optional>
#include <tuple>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/le_bytes.hpp"
#include "faultline/durable.hpp"

namespace hpas::runner {
namespace {

constexpr char kMagic[8] = {'H', 'P', 'A', 'S', 'J', 'N', 'L', '1'};

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Bounds-checked cursor over a payload. Failed reads set `ok` false and
// return zeros, so the caller can decode unconditionally and check once.
struct Cursor {
  std::string_view bytes;
  std::size_t off = 0;
  bool ok = true;

  /// The next `k` bytes, or nullptr once past the end.
  const unsigned char* take(std::size_t k) {
    ok = ok && bytes.size() - off >= k;
    if (!ok) return nullptr;
    off += k;
    return reinterpret_cast<const unsigned char*>(bytes.data() + off - k);
  }
  template <typename T>
  T le() {
    const unsigned char* p = take(sizeof(T));
    return p != nullptr ? get_le<T>(p) : T{};
  }
  double f64() { return std::bit_cast<double>(le<std::uint64_t>()); }
  std::string str() {
    const auto len = le<std::uint32_t>();
    const unsigned char* p = take(len);
    return p != nullptr ? std::string(reinterpret_cast<const char*>(p), len)
                        : std::string();
  }
};

std::string encode_record(const JournalRecord& r) {
  std::string payload;
  put_u64(payload, r.key_hash);
  put_u8(payload, static_cast<std::uint8_t>(r.status));
  put_string(payload, r.name);
  put_string(payload, r.output);
  put_u32(payload, r.csv_crc);
  put_u32(payload, r.trace_crc);
  put_u64(payload, r.trace_records);
  put_u64(payload, r.app_iterations);
  put_f64(payload, r.app_elapsed_s);
  put_f64(payload, r.wall_seconds);
  put_string(payload, r.error);
  if (r.has_objective) {
    // Trailing extension (see JournalRecord): absent in sweep records,
    // so their frames stay byte-identical to the legacy format.
    put_u8(payload, 1);
    put_f64(payload, r.objective);
  }
  return payload;
}

bool decode_record(std::string_view payload, JournalRecord& out) {
  Cursor c{payload};
  out.key_hash = c.le<std::uint64_t>();
  const auto status = c.le<std::uint8_t>();
  out.name = c.str();
  out.output = c.str();
  out.csv_crc = c.le<std::uint32_t>();
  out.trace_crc = c.le<std::uint32_t>();
  out.trace_records = c.le<std::uint64_t>();
  out.app_iterations = c.le<std::uint64_t>();
  out.app_elapsed_s = c.f64();
  out.wall_seconds = c.f64();
  out.error = c.str();
  out.has_objective = false;
  out.objective = 0.0;
  if (c.ok && c.off < payload.size()) {
    // Trailing objective extension; anything else trailing is corruption.
    if (c.le<std::uint8_t>() != 1) return false;
    out.objective = c.f64();
    out.has_objective = true;
  }
  if (!c.ok || c.off != payload.size()) return false;
  if (status < 1 || status > 4) return false;
  out.status = static_cast<JournalStatus>(status);
  return true;
}

void mix_field(std::uint64_t& h, const std::string& v) { mix_string(h, v); }
void mix_field(std::uint64_t& h, double v) { mix_double(h, v); }
void mix_field(std::uint64_t& h, int v) {
  mix(h, static_cast<std::uint64_t>(v));
}
void mix_field(std::uint64_t& h, bool v) { mix(h, v ? 1u : 0u); }

}  // namespace

const char* journal_status_name(JournalStatus status) {
  switch (status) {
    case JournalStatus::kDone: return "done";
    case JournalStatus::kTimeout: return "timeout";
    case JournalStatus::kFailed: return "failed";
    case JournalStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::uint64_t scenario_key_hash(const ScenarioSpec& spec) {
  std::uint64_t h = 0x48504153'4a4e4c31ULL;  // "HPASJNL1"
  mix_string(h, spec.name);
  // One fold over the table: every row's member is a constant here, so
  // the loop unrolls into straight-line mixing.
  std::apply(
      [&](const auto&... row) { (mix_field(h, spec.*row.member), ...); },
      kSpecFields);
  mix(h, spec.seed);
  return h;
}

JournalWriter::JournalWriter(const std::string& path, bool truncate)
    : path_(path) {
  int flags = O_WRONLY | O_CREAT | O_CLOEXEC;
  flags |= truncate ? O_TRUNC : O_APPEND;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0)
    throw SystemError("journal: cannot open " + path + ": " +
                      std::strerror(errno));
  // A fresh (or truncated) file needs the header; an appended-to file
  // already has one. off_t of the current end distinguishes them.
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end == 0) {
    try {
      faultline::write_all(faultline::Domain::kJournal, fd_, path,
                           std::string_view(kMagic, sizeof(kMagic)));
      faultline::sync_file(faultline::Domain::kJournal, fd_, path);
      // The new file's directory entry must be as durable as its bytes.
      faultline::sync_parent_dir(faultline::Domain::kJournal, path);
    } catch (const SystemError&) {
      ::close(fd_);
      fd_ = -1;
      throw;
    }
  }
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(const JournalRecord& record) {
  const std::string payload = encode_record(record);
  std::string frame;
  frame.reserve(payload.size() + 8);
  faultline::append_frame(frame, payload);
  // One write() per frame: either the whole record lands or the reader
  // sees a short tail it can discard. fsync makes "journaled" mean
  // "survives SIGKILL and power loss", which is the resume contract.
  faultline::write_all(faultline::Domain::kJournal, fd_, path_, frame);
  faultline::sync_file(faultline::Domain::kJournal, fd_, path_);
}

JournalReadResult read_journal(const std::string& path) {
  JournalReadResult result;
  const std::optional<std::string> file = faultline::read_file(path);
  if (!file) {
    if (::access(path.c_str(), F_OK) == 0)
      throw SystemError("journal: cannot read " + path);
    return result;  // no journal yet: a fresh sweep
  }
  const std::string& bytes = *file;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    result.damage = "bad or truncated journal header";
    return result;
  }

  // Sanity cap on frame length: no real record approaches this, so a
  // huge length means we are reading garbage, not a record.
  constexpr std::uint32_t kMaxFrame = 1u << 20;
  std::size_t off = sizeof(kMagic);
  while (off < bytes.size()) {
    const faultline::FrameView frame =
        faultline::check_frame(bytes, off, kMaxFrame);
    JournalRecord record;
    if (frame.status != faultline::FrameStatus::kOk) {
      result.damage = faultline::frame_damage(frame.status);
    } else if (!decode_record(frame.payload, record)) {
      result.damage = "undecodable frame payload";
    } else {
      result.records.push_back(std::move(record));
      off = frame.next;
      continue;
    }
    result.dropped_frames = 1;
    break;
  }
  return result;
}

}  // namespace hpas::runner
