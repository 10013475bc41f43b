// Task: the unit of execution in the simulated cluster.
//
// A task is pinned to one logical core of one node and is always in
// exactly one *phase*:
//   kCompute  -- retire `work` instructions (rate set by the CPU/cache/
//                memory models: shares, MPKI, bandwidth throttling);
//   kStream   -- move `work` bytes to/from DRAM with a non-temporal
//                access pattern (membw, STREAM);
//   kMessage  -- transfer `work` bytes to a peer node over the
//                interconnect (rate set by the network model), after a
//                fixed per-message startup latency;
//   kIo       -- perform `work` units against the shared filesystem
//                (bytes for read/write, operations for metadata);
//   kSleep    -- idle for `work` seconds (rate 1);
//   kIdle     -- blocked, waiting for an external wake (BSP barriers);
//   kDone     -- finished; the task no longer consumes resources.
//
// When a phase's remaining work reaches zero the World asks the task's
// controller callback for the next phase. Controllers (applications,
// anomaly injectors) are state machines in src/apps and src/simanom.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace hpas::trace {
class Tracer;
}

namespace hpas::sim {

class Task;
class World;

enum class PhaseKind { kIdle, kCompute, kStream, kMessage, kIo, kSleep, kDone };

enum class IoKind { kMetadata, kRead, kWrite };

struct Phase {
  PhaseKind kind = PhaseKind::kIdle;
  double work = 0.0;  ///< instructions | bytes | ops | seconds
  int peer_node = -1;              ///< kMessage: destination node id
  IoKind io_kind = IoKind::kWrite; ///< kIo only

  static Phase compute(double instructions) {
    return {PhaseKind::kCompute, instructions, -1, IoKind::kWrite};
  }
  static Phase stream(double bytes) {
    return {PhaseKind::kStream, bytes, -1, IoKind::kWrite};
  }
  static Phase message(int dst_node, double bytes) {
    return {PhaseKind::kMessage, bytes, dst_node, IoKind::kWrite};
  }
  static Phase io(IoKind kind, double amount) {
    return {PhaseKind::kIo, amount, -1, kind};
  }
  static Phase sleep(double seconds) {
    return {PhaseKind::kSleep, seconds, -1, IoKind::kWrite};
  }
  static Phase idle() { return {PhaseKind::kIdle, 0.0, -1, IoKind::kWrite}; }
  static Phase done() { return {PhaseKind::kDone, 0.0, -1, IoKind::kWrite}; }
};

/// Resource behaviour of a task, the simulated analogue of an application's
/// (or anomaly's) microarchitectural profile. The three m-pairs give the
/// misses-per-kilo-instruction leaving each cache level when the task's
/// working set is fully resident (base) versus fully evicted (max); the
/// cache model interpolates with the task's current residency.
struct TaskProfile {
  double ips_peak = 2.0e9;   ///< instructions/s on a dedicated core at CPI_0
  double cpu_demand = 1.0;   ///< fraction of one core requested (<=1)
  double working_set_bytes = 1.0 * 1024 * 1024;
  double m1_base = 5.0, m1_max = 60.0;   ///< L1 misses/KI (= L2 accesses)
  double m2_base = 2.0, m2_max = 30.0;   ///< L2 misses/KI (= L3 accesses)
  double m3_base = 0.5, m3_max = 20.0;   ///< L3 misses/KI (= DRAM accesses)
  double stream_bw_demand = 0.0;  ///< bytes/s wanted in kStream phases
  double msg_latency_s = 15e-6;   ///< per-message startup latency
  bool account_user = true;  ///< procstat bucket: user (apps) vs sys
};

/// Cumulative per-task resource usage, the simulated analogue of
/// per-process accounting (/proc/<pid>/stat, perf attribution). Node
/// counters aggregate these across residents; keeping both allows
/// experiments to ask "how much did the *victim* miss" (Fig. 3) without
/// the anomaly polluting the measurement.
struct TaskCounters {
  double cpu_seconds = 0.0;
  double instructions = 0.0;
  double l2_misses = 0.0;
  double l3_misses = 0.0;
  double dram_bytes = 0.0;
  double bytes_sent = 0.0;
  double io_work = 0.0;  ///< bytes or metadata ops, per the phase kind
};

/// Rates assigned by the resource models at the last recompute; consumed
/// by World::advance_task to progress work and accumulate node counters.
struct TaskRates {
  double progress = 0.0;     ///< work units/s in the current phase
  double cpu_share = 0.0;    ///< cores actually consumed
  double instr_rate = 0.0;   ///< instructions/s (compute phases)
  double l1_miss_rate = 0.0; ///< misses/s
  double l2_miss_rate = 0.0;
  double l3_miss_rate = 0.0;
  double dram_rate = 0.0;    ///< bytes/s to/from memory
};

class Task {
 public:
  /// `next_phase` is the controller: called when a phase completes; must
  /// return the next phase (possibly kDone). May inspect/mutate other
  /// tasks (e.g. barrier release) -- the World recomputes afterwards.
  using NextPhaseFn = std::function<Phase(Task&)>;

  Task(std::string name, int node, int core, TaskProfile profile,
       NextPhaseFn next_phase);

  const std::string& name() const { return name_; }
  int node() const { return node_; }
  int core() const { return core_; }
  const TaskProfile& profile() const { return profile_; }

  const Phase& phase() const { return phase_; }
  double remaining() const { return remaining_; }
  double latency_left() const { return latency_left_; }
  bool active() const {
    return phase_.kind != PhaseKind::kDone && phase_.kind != PhaseKind::kIdle;
  }
  bool done() const { return phase_.kind == PhaseKind::kDone; }

  /// Installs a new phase (resets remaining work and message latency).
  /// Used by the World on completion and by controllers to wake idle
  /// tasks. Rates reset to zero until the next recompute, except in a
  /// World when the new phase has the same solver inputs as the old (see
  /// World::on_task_phase_change): then the installed rates are kept.
  void set_phase(const Phase& phase);

  /// Controller invocation; called by the World only.
  Phase next_phase() { return next_phase_(*this); }

  TaskRates& rates() { return rates_; }
  const TaskRates& rates() const { return rates_; }

  TaskCounters& counters() { return counters_; }
  const TaskCounters& counters() const { return counters_; }

  /// Time until this task's phase completes at current rates; +inf when
  /// blocked or starved.
  double eta() const;

  /// Memory footprint on the node; maintained by controllers through
  /// World::allocate_memory.
  double allocated_bytes() const { return allocated_bytes_; }
  void set_allocated_bytes(double bytes) { allocated_bytes_ = bytes; }

  /// Structured tracing: the World wires every task to its tracer and
  /// assigns a stable subject id, so set_phase() can emit transition
  /// records. A null tracer (the default) disables emission.
  void set_tracing(trace::Tracer* tracer, std::uint32_t trace_id) {
    tracer_ = tracer;
    trace_id_ = trace_id;
  }
  std::uint32_t trace_id() const { return trace_id_; }

  /// Wires the task to its owning World. A wired task notifies the World
  /// around phase changes, which is how the incremental engine tracks
  /// dirty resource domains and keeps the rates of a transition that
  /// changes no solver input. Null (the default, for standalone model
  /// tests) disables the hooks.
  void set_world(World* world) { world_ = world; }

  /// True once World::kill_task removed the task from the live set; lets
  /// the completion loop skip corpses in O(1).
  bool killed() const { return killed_; }

 private:
  friend class World;

  /// Work-relative slack under which a phase counts as finished.
  double completion_tolerance() const;

  std::string name_;
  int node_;
  int core_;
  TaskProfile profile_;
  NextPhaseFn next_phase_;
  Phase phase_ = Phase::idle();
  double remaining_ = 0.0;
  double latency_left_ = 0.0;
  double allocated_bytes_ = 0.0;
  TaskRates rates_;
  TaskCounters counters_;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trace_id_ = 0;
  World* world_ = nullptr;
  bool killed_ = false;
};

}  // namespace hpas::sim
