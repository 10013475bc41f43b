// faultline -- deterministic, seeded fault injection for every I/O edge
// the durability argument depends on.
//
// Every durable file (through faultline/durable.hpp), the wire protocol
// and the submit client do their raw I/O through the interposed syscall
// wrappers below (faultline::write / read / send / fsync / rename_file),
// directory fsyncs included. With no
// schedule armed they are one relaxed atomic load away from the real
// syscall -- compiled in always, zero cost, and never part of scenario
// identity. Arm a FaultSchedule (programmatically in tests, or via
// `HPAS_FAULT_SCHEDULE` / `--fault-schedule` in the CLI) and the wrappers
// start injecting:
//
//   short_write / short_read   the call transfers at most `bytes` bytes,
//                              exercising every retry loop
//   errno                      the call fails with a chosen errno (EIO,
//                              ENOSPC, EINTR, ECONNRESET, ...) without
//                              touching the fd; `count` bounds repeats so
//                              an EINTR storm terminates
//   stall                      the call sleeps `stall_ms` first -- a slow
//                              peer, for deadline tests
//   crash                      _exit(137) before the call: the process
//                              dies as if SIGKILLed at that exact point
//   torn_crash                 transfer `bytes` bytes, then _exit(137):
//                              a torn write frozen mid-frame
//
// Rules fire at a chosen per-(domain, op) call index (`at`), periodically
// (`every`), or by a seeded coin (`prob`, SplitMix64 from the schedule
// seed) -- all deterministic given the same call sequence. The injection
// log records every fired fault in order, so two runs of the same
// schedule over the same workload compare byte-equal.
//
// Crash-point enumeration, the torture battery's engine: every wrapper
// call in `crash_domains` counts crash points (two per write -- before
// the syscall and mid-transfer -- one per fsync/rename, before). With
// `crash_at = k` the process exits at the k-th point; a run that outlives
// all its points exits normally, which is how the battery knows the space
// is exhausted. See DESIGN.md "Deterministic fault injection".
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hpas {
class Json;
}

namespace hpas::faultline {

/// Which subsystem edge a call belongs to. Rules match on it, and the
/// crash-point counter only ticks in `crash_domains`.
enum class Domain : std::uint8_t {
  kJournal = 0,  ///< journals and every file their records name: sweep
                 ///< and search outputs, dataset shards, manifest, CSV
  kCache = 1,    ///< result-cache spool writes, fsync, rename
  kSocket = 2,   ///< server-side frame codec reads/writes
  kClient = 3,   ///< submit-client frame codec reads/writes
};
inline constexpr std::size_t kDomainCount = 4;

enum class Op : std::uint8_t {
  kRead = 0,
  kWrite = 1,
  kFsync = 2,
  kRename = 3,
};
inline constexpr std::size_t kOpCount = 4;

const char* domain_name(Domain d);
const char* op_name(Op op);
/// Inverse lookups for schedule parsing; throw ConfigError on unknown
/// names.
Domain domain_from_name(const std::string& name);
Op op_from_name(const std::string& name);

enum class FaultKind : std::uint8_t {
  kShortWrite,  ///< transfer at most `bytes` this call
  kShortRead,   ///< deliver at most `bytes` this call
  kErrno,       ///< fail with `err`, fd untouched
  kStall,       ///< sleep `stall_ms`, then proceed normally
  kCrash,       ///< _exit(137) before the call
  kTornCrash,   ///< transfer `bytes`, then _exit(137)
};

const char* fault_kind_name(FaultKind kind);
FaultKind fault_kind_from_name(const std::string& name);

/// One injection rule. Exactly one trigger (`at`, `every`, `prob`) must
/// be set; `count` bounds how often the rule fires (default: once for
/// `at`, unlimited otherwise).
struct FaultRule {
  Domain domain = Domain::kJournal;
  Op op = Op::kWrite;
  FaultKind kind = FaultKind::kErrno;
  int err = 0;             ///< kErrno: the errno to fail with
  std::uint64_t bytes = 1; ///< kShortWrite/kShortRead/kTornCrash cap
  double stall_ms = 0.0;   ///< kStall: sleep before proceeding
  std::int64_t at = -1;    ///< fire at this (domain, op) call index
  std::int64_t every = 0;  ///< fire every Nth call (1 = every call)
  double prob = 0.0;       ///< fire on a seeded coin flip per call
  std::int64_t count = -1; ///< max fires; -1 = unlimited
};

/// A complete, JSON-loadable fault plan. to_json() is canonical: member
/// order is fixed and every defaulted field is still emitted, so
/// load -> dump -> load -> dump is a byte-identical fixpoint (the replay
/// guarantee tests pin this).
struct FaultSchedule {
  std::uint64_t seed = 1;       ///< drives the `prob` coin flips
  std::vector<FaultRule> rules;
  std::int64_t crash_at = -1;   ///< crash-point index to die at; -1 = off
  /// Domains whose wrapper calls count crash points (bitmask of
  /// 1 << Domain). Defaults to journal + cache: the write sequence the
  /// durability argument is about.
  std::uint32_t crash_domains =
      (1u << static_cast<unsigned>(Domain::kJournal)) |
      (1u << static_cast<unsigned>(Domain::kCache));

  static FaultSchedule from_json(const Json& doc);
  static FaultSchedule parse(const std::string& text);
  static FaultSchedule load_file(const std::string& path);
  Json to_json() const;
  std::string dump() const;  ///< canonical byte-stable serialization
};

/// Counters since the last arm(); all deterministic for a deterministic
/// call sequence.
struct FaultStats {
  std::uint64_t calls = 0;         ///< wrapper calls while armed
  std::uint64_t injected = 0;      ///< faults actually fired
  std::uint64_t crash_points = 0;  ///< crash-eligible points passed
};

/// Arms the process-wide engine with `schedule` (replacing any previous
/// one) / disarms it. Arming resets all counters and the injection log.
/// Thread-safe; the armed fast path in the wrappers is a single acquire
/// load.
void arm(const FaultSchedule& schedule);
void disarm();
bool armed();

FaultStats stats();
/// One line per fired fault, in firing order, e.g.
/// "journal/write#3 short_write bytes=5". Byte-equal across identical
/// runs -- the determinism test compares these.
std::vector<std::string> injection_log();

/// Number of crash points this workload would pass, for exhaustive
/// enumeration: run once with crash_at = -1, read stats().crash_points.
/// (Convenience alias for that read.)
std::uint64_t crash_points_passed();

/// Interposed syscalls. Signatures mirror the raw calls; on injection
/// they behave exactly as the fault dictates (partial transfer, -1 with
/// errno set, crash). `send_fd` falls back to ::write on ENOTSOCK like
/// the protocol layer expects.
ssize_t write(Domain d, int fd, const void* buf, std::size_t n);
ssize_t read(Domain d, int fd, void* buf, std::size_t n);
ssize_t send_fd(Domain d, int fd, const void* buf, std::size_t n, int flags);
int fsync(Domain d, int fd);
int rename_file(Domain d, const char* old_path, const char* new_path);

}  // namespace hpas::faultline
