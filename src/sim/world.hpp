// World: the top-level simulated HPC system.
//
// Owns the event engine, the nodes, the interconnect, the shared
// filesystem, all tasks, and the per-node monitoring stores. Implements
// the fluid-DES main loop:
//
//   update():
//     1. advance every task by (now - last_update) at its cached rates,
//        accumulating node/filesystem counters;
//     2. for each task whose phase completed, ask its controller for the
//        next phase (controllers may also wake other, kIdle tasks);
//     3. recompute all rates (per-node CPU/cache/memory, network flows,
//        filesystem shares);
//     4. schedule the next update at the earliest phase completion.
//
// External changes (task spawn, anomaly start, memory allocation) call
// update() after mutating state, so rates are always consistent with the
// task set. Everything is deterministic: one seeded RNG, FIFO event
// tie-breaks, no wall-clock dependence.
//
// The loop above is the *semantic* model; the implementation is
// incremental (see DESIGN.md, "Incremental rate recomputation"):
//   * rate recomputation is dirty-set driven -- spawn, kill and phase
//     transitions mark only the domains whose solver inputs changed: the
//     task's node when the old or new kind is compute, stream or sleep,
//     the network when either is a message, the filesystem when either
//     is I/O. A transition to the same kind with the same peer (message)
//     or I/O kind (I/O) changes no input, keeps the task's rates and
//     marks nothing. recompute_rates() re-solves just the marked
//     domains. Clean domains keep their installed rates, which are
//     identical because the solvers are deterministic functions of
//     unchanged inputs;
//   * completions are settled in one pass unless that pass installed a
//     phase that is already complete;
//   * counters are folded in as tasks advance -- step 1 steps each
//     active task once and adds that step to its node, network and
//     filesystem counters on the spot, so a controller in step 2 or a
//     sampler reads every counter up to date as of now.
// Setting HPAS_FULL_RECOMPUTE=1 (or set_full_recompute(true)) restores
// the original re-solve-every-domain-per-event behaviour; the
// equivalence tests byte-compare traces across both modes.
//
// The loop runs on one thread (see DESIGN.md, "Why the engine is
// serial"): a World is owned by the scenario that built it, and callers
// get parallelism by running independent scenarios concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/collector.hpp"
#include "metrics/store.hpp"
#include "sim/engine/simulator.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/storage.hpp"
#include "sim/task.hpp"

namespace hpas::sim {

class World {
 public:
  /// Homogeneous cluster: `node_config` replicated over the topology's
  /// compute nodes.
  World(NodeConfig node_config, Topology topology, FsConfig fs_config);

  Simulator& simulator() { return sim_; }
  double now() const { return sim_.now(); }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  Node& node(int id);
  Network& network() { return network_; }
  Filesystem& filesystem() { return fs_; }

  /// Creates a task pinned to (node, core) with `initial` as its first
  /// phase. The returned pointer stays valid for the lifetime of the
  /// World. Triggers a rate recompute.
  Task* spawn_task(const std::string& name, int node, int core,
                   const TaskProfile& profile, const Phase& initial,
                   Task::NextPhaseFn next_phase);

  /// Immediately terminates a task (releases CPU/cache/bandwidth; its
  /// memory allocation is returned to the node).
  void kill_task(Task* task);

  const std::vector<Task*>& tasks() const { return task_ptrs_; }

  /// Adjusts a task's memory footprint on its node. On overcommit the
  /// OOM handler decides the victim (default: kill the requesting task,
  /// mirroring the paper's "applications are killed when they run out of
  /// memory"). Returns false when the allocation failed.
  bool allocate_memory(Task* task, double delta_bytes);

  using OomHandler = std::function<void(World&, Task& requester)>;
  void set_oom_handler(OomHandler handler) { oom_ = std::move(handler); }

  /// Starts LDMS-like monitoring: per-node procstat / meminfo / vmstat /
  /// spapiHASW / aries_nic_mmr samplers collected every `period_s`.
  ///
  /// `sink` (optional, non-owning) streams node `sink_node`'s samples in
  /// collection order, including the t=0 sample taken inside this call.
  /// With `store_samples == false` the per-node MetricStores stay empty
  /// (node_store() returns an empty store) -- the streaming dataset path
  /// uses this so monitoring memory is O(1) in scenario duration. A
  /// node whose store is off and that feeds no sink is never polled.
  void enable_monitoring(double period_s,
                         metrics::SampleSink* sink = nullptr,
                         int sink_node = 0, bool store_samples = true);
  /// Restricts enable_monitoring()'s storage to node `node`: every other
  /// node keeps its collector but an empty store. -1 (the default)
  /// stores every node. Call before enable_monitoring().
  void set_store_node(int node);
  metrics::MetricStore& node_store(int id);

  /// Attaches a structured tracer to the whole substrate: the engine's
  /// event lifecycle, task spawn/kill/phase transitions, rate
  /// recomputations, memory traffic and monitoring samples all emit into
  /// it. Attach before spawning tasks for a complete stream (already-live
  /// tasks are adopted, but their history starts now). nullptr detaches.
  void attach_tracer(trace::Tracer* tracer);
  trace::Tracer* tracer() const { return tracer_; }

  /// Attaches a cooperative cancellation token to the event engine (see
  /// Simulator::set_cancel_token): run_until() then throws CancelledError
  /// between events once the token fires. nullptr detaches.
  void set_cancel_token(const CancelToken* token) {
    sim_.set_cancel_token(token);
  }

  /// Advances every task to now, re-derives all rates and reschedules the
  /// next completion. Called automatically by spawn/kill/allocate and by
  /// phase completions; an observer calls it to bring rates up to date
  /// before reading them (sched::NodeMonitor does), and after an external
  /// phase change. Conservatively marks every domain dirty, exactly like
  /// the original full-recompute loop.
  void update();

  void run_until(double t);
  void run_for(double dt) { run_until(now() + dt); }

  /// Forces the original re-solve-every-domain behaviour on each update.
  /// The observable outputs are bit-identical either way (that is
  /// tested); this exists as the reference mode for the dirty-set rules,
  /// for equivalence tests and the engine microbenchmark. Also enabled by
  /// the environment variable HPAS_FULL_RECOMPUTE=1 at construction.
  void set_full_recompute(bool on) { full_recompute_ = on; }
  bool full_recompute() const { return full_recompute_; }

  /// Incremental-engine hooks, invoked by Task::set_phase (and kept
  /// public for it; not useful to call directly). on_task_phase_change
  /// marks dirty the domains whose solver inputs the change alters and
  /// returns true when none change, and the task then keeps its installed
  /// rates (never in full-recompute mode). on_task_phase_installed flags
  /// a phase that is complete on arrival for another completion pass.
  bool on_task_phase_change(Task& task, const Phase& next);
  void on_task_phase_installed(Task& task);

 private:
  void update_event();  ///< incremental update (internal event path)
  void advance_tasks(double dt);
  /// Steps one active task by dt and folds the step into its counters.
  void advance_task(Task& task, double dt);
  void handle_completions();
  void recompute_rates();
  void trace_rates();
  void schedule_next_completion();
  void sample_all(double period_s);

  void mark_node_dirty(int id);
  void mark_all_dirty();

  Simulator sim_;
  std::vector<std::unique_ptr<Node>> nodes_;
  Network network_;
  Filesystem fs_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::vector<Task*> task_ptrs_;  ///< live (non-destroyed) tasks
  double last_update_ = 0.0;
  EventHandle pending_completion_;
  OomHandler oom_;
  bool in_update_ = false;
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t next_trace_id_ = 1;  ///< task subject ids, stable per world

  // --- incremental engine state ----------------------------------------
  bool full_recompute_ = false;
  std::vector<std::vector<Task*>> node_tasks_;  ///< residents, spawn order
  std::vector<char> node_dirty_;
  std::vector<int> dirty_nodes_;
  bool net_dirty_ = false;
  bool fs_dirty_ = false;
  /// Set when a phase is installed that is already complete; tells
  /// handle_completions that another pass has work.
  bool completion_pending_ = false;

  // Hot-path scratch (no per-event allocation once warm).
  std::vector<Task*> completion_scratch_;
  std::vector<Flow> flow_scratch_;
  struct RateAgg {
    std::uint16_t active = 0;
    double cpu_share = 0.0;
    double dram_rate = 0.0;
  };
  std::vector<RateAgg> agg_scratch_;

  int store_node_ = -1;  ///< the one node with a store; -1 = every node
  std::vector<std::unique_ptr<metrics::MetricStore>> stores_;
  std::vector<std::unique_ptr<metrics::Collector>> collectors_;
};

}  // namespace hpas::sim
