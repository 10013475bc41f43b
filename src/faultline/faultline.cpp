#include "faultline/faultline.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "faultline/durable.hpp"

namespace hpas::faultline {
namespace {

/// Exit status of an injected crash: what a SIGKILLed process reports.
constexpr int kCrashExitCode = 137;

struct NamedErrno {
  const char* name;
  int value;
};

/// The errnos fault schedules speak about by name. Anything else round
/// trips as a decimal string.
constexpr NamedErrno kErrnoNames[] = {
    {"EIO", EIO},         {"ENOSPC", ENOSPC},   {"EINTR", EINTR},
    {"ECONNRESET", ECONNRESET}, {"EPIPE", EPIPE}, {"EAGAIN", EAGAIN},
    {"EMFILE", EMFILE},   {"ENFILE", ENFILE},   {"EBADF", EBADF},
    {"EDQUOT", EDQUOT},
};

std::string errno_to_name(int err) {
  for (const auto& e : kErrnoNames)
    if (e.value == err) return e.name;
  return std::to_string(err);
}

int errno_from_name(const std::string& name) {
  for (const auto& e : kErrnoNames)
    if (name == e.name) return e.value;
  // Accept a plain decimal errno so schedules are not limited to the
  // named set.
  try {
    std::size_t used = 0;
    const int v = std::stoi(name, &used);
    if (used == name.size() && v > 0) return v;
  } catch (const std::exception&) {
  }
  throw ConfigError("faultline: unknown errno name: " + name);
}

constexpr const char* kDomainNames[kDomainCount] = {"journal", "cache",
                                                    "socket", "client"};
constexpr const char* kOpNames[kOpCount] = {"read", "write", "fsync",
                                            "rename"};
constexpr const char* kKindNames[] = {"short_write", "short_read", "errno",
                                      "stall", "crash", "torn_crash"};

/// What one wrapper call must do. kind-less (none_ == true) means proceed
/// with the raw syscall untouched.
struct Action {
  bool none = true;
  FaultKind kind = FaultKind::kErrno;
  int err = 0;
  std::uint64_t bytes = 1;
  double stall_ms = 0.0;
};

class Engine {
 public:
  explicit Engine(const FaultSchedule& schedule)
      : schedule_(schedule), rng_(schedule.seed),
        fired_(schedule.rules.size(), 0) {}

  /// Evaluates one wrapper call: advances the (domain, op) clock, counts
  /// crash points, and returns the first matching rule's action.
  /// `transfer_len` sizes the mid-write torn crash.
  Action evaluate(Domain d, Op op, std::size_t transfer_len) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.calls;
    const std::size_t slot = static_cast<std::size_t>(d) * kOpCount +
                             static_cast<std::size_t>(op);
    const std::uint64_t index = counters_[slot]++;

    // Crash-point enumeration: a write is two points (before the
    // syscall, and mid-transfer leaving a torn tail); fsync and rename
    // are one each (before). Reads never affect durability.
    if ((schedule_.crash_domains & (1u << static_cast<unsigned>(d))) != 0 &&
        op != Op::kRead) {
      const std::int64_t before =
          static_cast<std::int64_t>(stats_.crash_points++);
      if (schedule_.crash_at == before)
        return make_crash(d, op, index, /*bytes=*/0);
      if (op == Op::kWrite) {
        const std::int64_t mid =
            static_cast<std::int64_t>(stats_.crash_points++);
        if (schedule_.crash_at == mid)
          return make_crash(d, op, index, transfer_len / 2);
      }
    }

    for (std::size_t r = 0; r < schedule_.rules.size(); ++r) {
      const FaultRule& rule = schedule_.rules[r];
      if (rule.domain != d || rule.op != op) continue;
      if (rule.count >= 0 && fired_[r] >= rule.count) continue;
      bool fire = false;
      if (rule.at >= 0) {
        fire = static_cast<std::int64_t>(index) == rule.at;
      } else if (rule.every > 0) {
        fire = (index + 1) % static_cast<std::uint64_t>(rule.every) == 0;
      } else if (rule.prob > 0.0) {
        // One seeded draw per candidate call: deterministic for a
        // deterministic call sequence.
        const double coin =
            static_cast<double>(rng_.next() >> 11) * 0x1.0p-53;
        fire = coin < rule.prob;
      }
      if (!fire) continue;
      ++fired_[r];
      ++stats_.injected;
      Action action;
      action.none = false;
      action.kind = rule.kind;
      action.err = rule.err;
      action.bytes = rule.bytes;
      action.stall_ms = rule.stall_ms;
      log_action(d, op, index, action);
      return action;
    }
    return {};
  }

  FaultStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  std::vector<std::string> log() const {
    std::lock_guard<std::mutex> lock(mu_);
    return log_;
  }

 private:
  Action make_crash(Domain d, Op op, std::uint64_t index,
                    std::uint64_t bytes) {
    Action action;
    action.none = false;
    action.kind = bytes > 0 ? FaultKind::kTornCrash : FaultKind::kCrash;
    action.bytes = bytes;
    ++stats_.injected;
    log_action(d, op, index, action);
    return action;
  }

  void log_action(Domain d, Op op, std::uint64_t index,
                  const Action& action) {
    std::ostringstream line;
    line << domain_name(d) << '/' << op_name(op) << '#' << index << ' '
         << fault_kind_name(action.kind);
    switch (action.kind) {
      case FaultKind::kErrno:
        line << ' ' << errno_to_name(action.err);
        break;
      case FaultKind::kShortWrite:
      case FaultKind::kShortRead:
      case FaultKind::kTornCrash:
        line << " bytes=" << action.bytes;
        break;
      case FaultKind::kStall:
        line << " ms=" << action.stall_ms;
        break;
      case FaultKind::kCrash:
        break;
    }
    log_.push_back(line.str());
  }

  mutable std::mutex mu_;
  FaultSchedule schedule_;
  SplitMix64 rng_;
  std::vector<std::int64_t> fired_;
  std::uint64_t counters_[kDomainCount * kOpCount] = {};
  FaultStats stats_;
  std::vector<std::string> log_;
};

std::atomic<Engine*> g_engine{nullptr};
std::mutex g_arm_mu;
// Retired engines are kept until process exit: a wrapper racing a
// re-arm/disarm may still hold the old pointer, and fault tests are not
// worth a hazard-pointer scheme.
std::vector<std::unique_ptr<Engine>>& retired_engines() {
  static std::vector<std::unique_ptr<Engine>> engines;
  return engines;
}

/// The wrapper slow path: evaluate the schedule and carry out the
/// injected part. Returns true (with *result set) when the fault fully
/// decided the call's outcome; false means proceed with the raw syscall,
/// possibly with a clamped transfer size.
bool apply_transfer_fault(Engine* engine, Domain d, Op op, int fd,
                          const void* buf, std::size_t& n, int send_flags,
                          bool is_send, ssize_t* result);

ssize_t raw_transfer(Op op, int fd, const void* buf, std::size_t n,
                     int send_flags, bool is_send) {
  if (op == Op::kRead)
    return ::read(fd, const_cast<void*>(buf), n);
  if (is_send) {
    const ssize_t w = ::send(fd, buf, n, send_flags);
    if (w < 0 && errno == ENOTSOCK) return ::write(fd, buf, n);
    return w;
  }
  return ::write(fd, buf, n);
}

bool apply_transfer_fault(Engine* engine, Domain d, Op op, int fd,
                          const void* buf, std::size_t& n, int send_flags,
                          bool is_send, ssize_t* result) {
  const Action action = engine->evaluate(d, op, n);
  if (action.none) return false;
  switch (action.kind) {
    case FaultKind::kErrno:
      errno = action.err;
      *result = -1;
      return true;
    case FaultKind::kCrash:
      ::_exit(kCrashExitCode);
    case FaultKind::kTornCrash: {
      const std::size_t torn =
          static_cast<std::size_t>(action.bytes) < n
              ? static_cast<std::size_t>(action.bytes)
              : n;
      if (torn > 0) (void)raw_transfer(op, fd, buf, torn, send_flags, is_send);
      ::_exit(kCrashExitCode);
    }
    case FaultKind::kStall:
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          action.stall_ms));
      return false;
    case FaultKind::kShortWrite:
    case FaultKind::kShortRead: {
      // Clamp to at least one byte: a zero-length transfer reads as EOF
      // or no-progress to the retry loops, which is a different fault.
      std::size_t cap = static_cast<std::size_t>(action.bytes);
      if (cap == 0) cap = 1;
      if (cap < n) n = cap;
      return false;
    }
  }
  return false;
}

/// Shared slow path of the non-transfer calls (fsync, rename): true
/// when an injected errno fails the call. Crashes do not return.
bool fail_call(Domain d, Op op) {
  Engine* engine = g_engine.load(std::memory_order_acquire);
  if (engine == nullptr) return false;
  const Action action = engine->evaluate(d, op, 0);
  if (action.none) return false;
  switch (action.kind) {
    case FaultKind::kErrno:
      errno = action.err;
      return true;
    case FaultKind::kCrash:
    case FaultKind::kTornCrash:
      ::_exit(kCrashExitCode);
    case FaultKind::kStall:
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(action.stall_ms));
      break;
    default:
      break;  // short transfers are meaningless here
  }
  return false;
}

}  // namespace

const char* domain_name(Domain d) {
  return kDomainNames[static_cast<std::size_t>(d)];
}

const char* op_name(Op op) { return kOpNames[static_cast<std::size_t>(op)]; }

Domain domain_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kDomainCount; ++i)
    if (name == kDomainNames[i]) return static_cast<Domain>(i);
  throw ConfigError("faultline: unknown domain: " + name);
}

Op op_from_name(const std::string& name) {
  for (std::size_t i = 0; i < kOpCount; ++i)
    if (name == kOpNames[i]) return static_cast<Op>(i);
  throw ConfigError("faultline: unknown op: " + name);
}

const char* fault_kind_name(FaultKind kind) {
  return kKindNames[static_cast<std::size_t>(kind)];
}

FaultKind fault_kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kKindNames); ++i)
    if (name == kKindNames[i]) return static_cast<FaultKind>(i);
  throw ConfigError("faultline: unknown fault kind: " + name);
}

FaultSchedule FaultSchedule::from_json(const Json& doc) {
  FaultSchedule schedule;
  schedule.seed = static_cast<std::uint64_t>(doc.number_or("seed", 1.0));
  schedule.crash_at =
      static_cast<std::int64_t>(doc.number_or("crash_at", -1.0));
  if (const Json* domains = doc.find("crash_domains")) {
    schedule.crash_domains = 0;
    for (const Json& name : domains->as_array())
      schedule.crash_domains |=
          1u << static_cast<unsigned>(domain_from_name(name.as_string()));
  }
  if (const Json* rules = doc.find("rules")) {
    for (const Json& entry : rules->as_array()) {
      FaultRule rule;
      rule.domain = domain_from_name(entry.string_or("domain", ""));
      rule.op = op_from_name(entry.string_or("op", ""));
      rule.kind = fault_kind_from_name(entry.string_or("fault", ""));
      if (rule.kind == FaultKind::kErrno)
        rule.err = errno_from_name(entry.string_or("errno", "EIO"));
      rule.bytes = static_cast<std::uint64_t>(entry.number_or("bytes", 1.0));
      rule.stall_ms = entry.number_or("stall_ms", 0.0);
      rule.at = static_cast<std::int64_t>(entry.number_or("at", -1.0));
      rule.every = static_cast<std::int64_t>(entry.number_or("every", 0.0));
      rule.prob = entry.number_or("prob", 0.0);
      rule.count = static_cast<std::int64_t>(entry.number_or("count", -1.0));
      const int triggers = (rule.at >= 0 ? 1 : 0) + (rule.every > 0 ? 1 : 0) +
                           (rule.prob > 0.0 ? 1 : 0);
      if (triggers != 1)
        throw ConfigError(
            "faultline: rule needs exactly one of \"at\", \"every\", "
            "\"prob\"");
      // An `at` rule fires once unless the schedule says otherwise.
      if (rule.at >= 0 && rule.count < 0) rule.count = 1;
      schedule.rules.push_back(rule);
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::parse(const std::string& text) {
  return from_json(Json::parse(text));
}

FaultSchedule FaultSchedule::load_file(const std::string& path) {
  return from_json(load_json_file(path));
}

Json FaultSchedule::to_json() const {
  // Canonical: fixed member order, defaulted trigger fields emitted, so
  // the dump is a pure function of the parsed schedule (the byte-stable
  // fixpoint the tests pin).
  Json doc = Json::object();
  doc.set("seed", Json(seed));
  doc.set("crash_at", Json(static_cast<double>(crash_at)));
  Json domains = Json::array();
  for (std::size_t i = 0; i < kDomainCount; ++i)
    if ((crash_domains & (1u << i)) != 0)
      domains.push_back(Json(kDomainNames[i]));
  doc.set("crash_domains", std::move(domains));
  Json rules_doc = Json::array();
  for (const FaultRule& rule : rules) {
    Json entry = Json::object();
    entry.set("domain", Json(domain_name(rule.domain)));
    entry.set("op", Json(op_name(rule.op)));
    entry.set("fault", Json(fault_kind_name(rule.kind)));
    if (rule.kind == FaultKind::kErrno)
      entry.set("errno", Json(errno_to_name(rule.err)));
    if (rule.kind == FaultKind::kShortWrite ||
        rule.kind == FaultKind::kShortRead ||
        rule.kind == FaultKind::kTornCrash)
      entry.set("bytes", Json(rule.bytes));
    if (rule.kind == FaultKind::kStall)
      entry.set("stall_ms", Json(rule.stall_ms));
    entry.set("at", Json(static_cast<double>(rule.at)));
    entry.set("every", Json(static_cast<double>(rule.every)));
    entry.set("prob", Json(rule.prob));
    entry.set("count", Json(static_cast<double>(rule.count)));
    rules_doc.push_back(std::move(entry));
  }
  doc.set("rules", std::move(rules_doc));
  return doc;
}

std::string FaultSchedule::dump() const { return to_json().dump(); }

void arm(const FaultSchedule& schedule) {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  auto engine = std::make_unique<Engine>(schedule);
  g_engine.store(engine.get(), std::memory_order_release);
  retired_engines().push_back(std::move(engine));
}

void disarm() {
  std::lock_guard<std::mutex> lock(g_arm_mu);
  g_engine.store(nullptr, std::memory_order_release);
}

bool armed() {
  return g_engine.load(std::memory_order_acquire) != nullptr;
}

FaultStats stats() {
  Engine* engine = g_engine.load(std::memory_order_acquire);
  return engine != nullptr ? engine->stats() : FaultStats{};
}

std::vector<std::string> injection_log() {
  Engine* engine = g_engine.load(std::memory_order_acquire);
  return engine != nullptr ? engine->log() : std::vector<std::string>{};
}

std::uint64_t crash_points_passed() { return stats().crash_points; }

ssize_t write(Domain d, int fd, const void* buf, std::size_t n) {
  Engine* engine = g_engine.load(std::memory_order_acquire);
  if (engine == nullptr) return ::write(fd, buf, n);
  ssize_t result = 0;
  std::size_t len = n;
  if (apply_transfer_fault(engine, d, Op::kWrite, fd, buf, len, 0, false,
                           &result))
    return result;
  return ::write(fd, buf, len);
}

ssize_t read(Domain d, int fd, void* buf, std::size_t n) {
  Engine* engine = g_engine.load(std::memory_order_acquire);
  if (engine == nullptr) return ::read(fd, buf, n);
  ssize_t result = 0;
  std::size_t len = n;
  if (apply_transfer_fault(engine, d, Op::kRead, fd, buf, len, 0, false,
                           &result))
    return result;
  return ::read(fd, buf, len);
}

ssize_t send_fd(Domain d, int fd, const void* buf, std::size_t n,
                int flags) {
  Engine* engine = g_engine.load(std::memory_order_acquire);
  if (engine == nullptr) return raw_transfer(Op::kWrite, fd, buf, n, flags,
                                             /*is_send=*/true);
  ssize_t result = 0;
  std::size_t len = n;
  if (apply_transfer_fault(engine, d, Op::kWrite, fd, buf, len, flags, true,
                           &result))
    return result;
  return raw_transfer(Op::kWrite, fd, buf, len, flags, /*is_send=*/true);
}

int fsync(Domain d, int fd) {
  return fail_call(d, Op::kFsync) ? -1 : ::fsync(fd);
}

int rename_file(Domain d, const char* old_path, const char* new_path) {
  return fail_call(d, Op::kRename) ? -1 : std::rename(old_path, new_path);
}

}  // namespace hpas::faultline
