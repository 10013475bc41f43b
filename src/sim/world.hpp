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
//     transitions mark only the affected node(s),
//     the network flow set, or the filesystem, and recompute_rates()
//     re-solves just those domains. Clean domains keep their installed
//     rates, which are identical because the solvers are deterministic
//     functions of unchanged inputs;
//   * counter integration is lazy -- advance_tasks still moves every
//     active task's remaining-work eagerly (completion times feed event
//     scheduling), but the node/network/filesystem counter accumulation
//     is deferred: each update logs its dt chunk, and a per-domain cursor
//     replays pending chunks through the exact same arithmetic when the
//     domain is next observed (rate change, phase change, sampling, or
//     run_until returning). Replay preserves the per-chunk fold order of
//     every shared accumulator, so all observables are bit-identical to
//     eager integration.
// Setting HPAS_FULL_RECOMPUTE=1 (or set_full_recompute(true)) restores
// the original recompute-everything-per-event behaviour; the equivalence
// tests byte-compare traces across both modes.
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
  /// uses this so monitoring memory is O(1) in scenario duration.
  void enable_monitoring(double period_s,
                         metrics::SampleSink* sink = nullptr,
                         int sink_node = 0, bool store_samples = true);
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

  /// Re-derives all rates and reschedules the next completion. Called
  /// automatically by spawn/kill/allocate and by phase completions; an
  /// observer calls it to bring rates up to date before reading them
  /// (sched::NodeMonitor does). Conservatively marks every domain dirty
  /// and settles all deferred counter integration, exactly like the
  /// original full-recompute loop.
  void update();

  void run_until(double t);
  void run_for(double dt) { run_until(now() + dt); }

  /// Forces the original recompute-every-domain, integrate-every-counter
  /// behaviour on each update. The observable outputs are bit-identical
  /// either way (that is tested); this exists as the reference mode for
  /// equivalence tests and the engine microbenchmark. Also enabled by the
  /// environment variable HPAS_FULL_RECOMPUTE=1 at construction.
  void set_full_recompute(bool on);
  bool full_recompute() const { return full_recompute_; }

  /// Incremental-engine hooks, invoked by Task::set_phase (and kept
  /// public for it; not useful to call directly). They settle deferred
  /// counter integration for the domains a phase change touches and mark
  /// those domains dirty.
  void on_task_phase_change(Task& task, const Phase& next);
  void on_task_phase_installed(Task& task);

 private:
  void update_event();  ///< incremental update (internal event path)
  void advance_tasks(double dt);
  void handle_completions();
  void recompute_rates();
  void trace_rates();
  void schedule_next_completion();
  void sample_all(double period_s);

  // --- deferred counter integration -----------------------------------
  void apply_counter_chunk(Task& task, double dt);
  void sync_network_domain();
  void sync_node_domain(int id);
  void sync_fs_domain();
  void sync_all_domains();  ///< settles every cursor, truncates the log
  void sync_domain_of(PhaseKind kind, int node_id);
  void mark_node_dirty(int id);
  void mark_all_dirty();
  void note_domain_entry(PhaseKind kind, int node_id, int delta);

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
  /// dt of every advance_tasks call not yet folded into all counters.
  std::vector<double> chunk_dt_;
  std::vector<std::uint32_t> node_cursor_;  ///< per-node replay cursor
  std::uint32_t net_cursor_ = 0;
  std::uint32_t fs_cursor_ = 0;
  /// Active members per counter domain; a domain with no members can
  /// skip its replay range outright.
  std::vector<int> node_active_;
  int message_tasks_ = 0;
  int io_tasks_ = 0;

  // Hot-path scratch (no per-event allocation once warm).
  std::vector<Task*> completion_scratch_;
  std::vector<Flow> flow_scratch_;
  struct RateAgg {
    std::uint16_t active = 0;
    double cpu_share = 0.0;
    double dram_rate = 0.0;
  };
  std::vector<RateAgg> agg_scratch_;

  std::vector<std::unique_ptr<metrics::MetricStore>> stores_;
  std::vector<std::unique_ptr<metrics::Collector>> collectors_;
};

}  // namespace hpas::sim
