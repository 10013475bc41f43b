#include "trace/export.hpp"

#include <bit>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/le_bytes.hpp"

namespace hpas::trace {
namespace {

constexpr char kMagic[8] = {'H', 'P', 'T', 'R', 'A', 'C', 'E', '1'};
constexpr std::uint32_t kVersion = 1;

class Reader {
 public:
  explicit Reader(std::istream& in) : in_(in) {}

  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string bytes(std::size_t n) {
    std::string out(n, '\0');
    in_.read(out.data(), static_cast<std::streamsize>(n));
    check();
    return out;
  }

 private:
  template <typename T>
  T le() {
    unsigned char raw[sizeof(T)] = {};
    in_.read(reinterpret_cast<char*>(raw), sizeof(T));
    check();
    return get_le<T>(raw);
  }

  void check() {
    if (!in_) throw ConfigError("trace: truncated or unreadable stream");
  }

  std::istream& in_;
};

}  // namespace

void write_binary(std::ostream& out, const TraceFile& file) {
  std::string bytes;
  bytes.reserve(64 + file.records.size() * 46);
  bytes.append(kMagic, sizeof(kMagic));
  put_u32(bytes, kVersion);
  put_u64(bytes, file.emitted);
  put_u64(bytes, file.dropped);
  put_u32(bytes, static_cast<std::uint32_t>(file.labels.size()));
  put_u64(bytes, file.records.size());
  for (const auto& [id, name] : file.labels) {
    put_u32(bytes, id);
    put_u32(bytes, static_cast<std::uint32_t>(name.size()));
    bytes.append(name);
  }
  for (const TraceRecord& r : file.records) {
    put_u64(bytes, r.seq);
    put_f64(bytes, r.time);
    put_u16(bytes, static_cast<std::uint16_t>(r.kind));
    put_u32(bytes, r.subject);
    put_u16(bytes, r.detail);
    put_u64(bytes, r.a);
    put_f64(bytes, r.x);
    put_f64(bytes, r.y);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw SystemError("trace: write failed");
}

TraceFile read_binary(std::istream& in) {
  Reader reader(in);
  const std::string magic = reader.bytes(sizeof(kMagic));
  if (magic != std::string(kMagic, sizeof(kMagic)))
    throw ConfigError("trace: not a binary trace (bad magic)");
  const std::uint32_t version = reader.u32();
  if (version != kVersion)
    throw ConfigError("trace: unsupported version " + std::to_string(version));

  TraceFile file;
  file.emitted = reader.u64();
  file.dropped = reader.u64();
  const std::uint32_t label_count = reader.u32();
  const std::uint64_t record_count = reader.u64();
  if (record_count > file.emitted)
    throw ConfigError("trace: corrupt header (records > emitted)");
  file.labels.reserve(label_count);
  for (std::uint32_t i = 0; i < label_count; ++i) {
    const std::uint32_t id = reader.u32();
    const std::uint32_t len = reader.u32();
    if (len > (1u << 20)) throw ConfigError("trace: label too long");
    file.labels.emplace_back(id, reader.bytes(len));
  }
  file.records.reserve(record_count);
  for (std::uint64_t i = 0; i < record_count; ++i) {
    TraceRecord r;
    r.seq = reader.u64();
    r.time = reader.f64();
    r.kind = static_cast<RecordKind>(reader.u16());
    r.subject = reader.u32();
    r.detail = reader.u16();
    r.a = reader.u64();
    r.x = reader.f64();
    r.y = reader.f64();
    file.records.push_back(r);
  }
  return file;
}

void write_binary_file(const std::string& path, const TraceFile& file) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw SystemError("trace: cannot open for writing: " + path);
  write_binary(out, file);
}

TraceFile read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw SystemError("trace: cannot open: " + path);
  return read_binary(in);
}

std::string format_record(const TraceRecord& record, const TraceFile& file) {
  std::string subj = std::to_string(record.subject);
  for (const auto& [id, name] : file.labels) {
    if (id == record.subject) {
      subj += '(' + name + ')';
      break;
    }
  }
  std::ostringstream out;
  out << '#' << record.seq << " t=" << json_number_to_string(record.time)
      << ' ' << record_kind_name(record.kind) << " subj=" << subj
      << " detail=" << record.detail << " a=" << record.a
      << " x=" << json_number_to_string(record.x)
      << " y=" << json_number_to_string(record.y);
  return out.str();
}

void write_text(std::ostream& out, const TraceFile& file) {
  out << "trace emitted=" << file.emitted << " dropped=" << file.dropped
      << " records=" << file.records.size() << '\n';
  for (const auto& [id, name] : file.labels)
    out << "label " << id << ' ' << name << '\n';
  for (const TraceRecord& r : file.records)
    out << format_record(r, file) << '\n';
}

Json to_chrome_trace(const TraceFile& file) {
  Json events = Json::array();
  for (const TraceRecord& r : file.records) {
    Json ev = Json::object();
    std::string name(record_kind_name(r.kind));
    for (const auto& [id, label] : file.labels) {
      if (id == r.subject) {
        name += ':' + label;
        break;
      }
    }
    ev.set("name", std::move(name));
    ev.set("ph", "i");  // instant event
    ev.set("s", "g");   // global scope
    ev.set("ts", r.time * 1e6);
    ev.set("pid", 0);
    ev.set("tid", static_cast<double>(r.subject));
    Json args = Json::object();
    args.set("seq", static_cast<double>(r.seq));
    args.set("detail", static_cast<double>(r.detail));
    args.set("a", static_cast<double>(r.a));
    args.set("x", r.x);
    args.set("y", r.y);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  return doc;
}

}  // namespace hpas::trace
