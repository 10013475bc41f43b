#include "sim/world.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.hpp"
#include "common/log.hpp"
#include "sim/samplers.hpp"
#include "trace/tracer.hpp"

namespace hpas::sim {
namespace {

/// The phase kinds Node::compute_rates reads and writes; message and I/O
/// residents belong to the network and filesystem solvers.
bool in_node_domain(PhaseKind kind) {
  return kind == PhaseKind::kCompute || kind == PhaseKind::kStream ||
         kind == PhaseKind::kSleep;
}

/// True when replacing phase `a` by `b` changes no rate-solver input: the
/// same kind and, for a message, the same destination or, for I/O, the
/// same operation. Profiles are fixed at spawn and no solver reads
/// `work`, so the task's installed rates are what a re-solve would give.
bool same_solver_inputs(const Phase& a, const Phase& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case PhaseKind::kMessage: return a.peer_node == b.peer_node;
    case PhaseKind::kIo: return a.io_kind == b.io_kind;
    default: return true;
  }
}

/// Phase-progress arithmetic for one step of dt at `progress` work
/// units/s: message startup latency elapses first, then work drains, and
/// a residue within `tolerance` is clamped to zero.
void advance_step(double dt, double progress, double tolerance,
                  double& remaining, double& latency_left) {
  if (latency_left > 0.0) {
    const double lat = std::min(latency_left, dt);
    latency_left -= lat;
    dt -= lat;
    if (dt <= 0.0) return;
  }
  remaining -= progress * dt;
  if (remaining <= tolerance) remaining = 0.0;
}

bool env_full_recompute() {
  const char* env = std::getenv("HPAS_FULL_RECOMPUTE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

}  // namespace

World::World(NodeConfig node_config, Topology topology, FsConfig fs_config)
    : network_(std::move(topology)), fs_(fs_config) {
  const int n = network_.topology().num_nodes;
  nodes_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    nodes_.push_back(std::make_unique<Node>(i, node_config));
  node_tasks_.resize(static_cast<std::size_t>(n));
  node_dirty_.assign(static_cast<std::size_t>(n), 0);
  full_recompute_ = env_full_recompute();
  oom_ = [](World& world, Task& requester) {
    log_warn("sim: OOM on node ", requester.node(), "; killing '",
             requester.name(), "'");
    world.kill_task(&requester);
  };
}

Node& World::node(int id) {
  require(id >= 0 && id < num_nodes(), "World: node id out of range");
  return *nodes_[static_cast<std::size_t>(id)];
}

Task* World::spawn_task(const std::string& name, int node_id, int core,
                        const TaskProfile& profile, const Phase& initial,
                        Task::NextPhaseFn next_phase) {
  require(node_id >= 0 && node_id < num_nodes(),
          "spawn_task: node id out of range");
  require(core >= 0 && core < node(node_id).config().cores,
          "spawn_task: core out of range");
  auto task = std::make_unique<Task>(name, node_id, core, profile,
                                     std::move(next_phase));
  const std::uint32_t trace_id = next_trace_id_++;
  task->set_tracing(tracer_, trace_id);
  task->set_world(this);
  if (tracer_) {
    tracer_->set_label(trace_id, name);
    tracer_->emit(trace::RecordKind::kTaskSpawn, trace_id,
                  static_cast<std::uint16_t>(node_id),
                  static_cast<std::uint64_t>(core));
  }
  task->set_phase(initial);
  Task* raw = task.get();
  tasks_.push_back(std::move(task));
  task_ptrs_.push_back(raw);
  node_tasks_[static_cast<std::size_t>(node_id)].push_back(raw);
  update_event();
  return raw;
}

void World::kill_task(Task* task) {
  require(task != nullptr, "kill_task: null task");
  if (tracer_) {
    tracer_->emit(trace::RecordKind::kTaskKill, task->trace_id(),
                  static_cast<std::uint16_t>(task->node()), 0,
                  task->allocated_bytes());
  }
  if (task->allocated_bytes() > 0.0) {
    node(task->node()).adjust_memory(-task->allocated_bytes());
    task->set_allocated_bytes(0.0);
  }
  // Counters are folded in up to the last update; a killed task accrues
  // nothing for the partial interval it died in, because the erase below
  // comes before the next advance.
  task->set_phase(Phase::done());
  task->killed_ = true;
  task_ptrs_.erase(std::remove(task_ptrs_.begin(), task_ptrs_.end(), task),
                   task_ptrs_.end());
  auto& residents = node_tasks_[static_cast<std::size_t>(task->node())];
  residents.erase(std::remove(residents.begin(), residents.end(), task),
                  residents.end());
  if (!in_update_) update_event();
}

bool World::allocate_memory(Task* task, double delta_bytes) {
  require(task != nullptr, "allocate_memory: null task");
  Node& host = node(task->node());
  if (!host.adjust_memory(delta_bytes)) {
    if (tracer_) {
      tracer_->emit(trace::RecordKind::kOom, task->trace_id(),
                    static_cast<std::uint16_t>(task->node()), 0, delta_bytes,
                    host.memory_free());
    }
    if (oom_) oom_(*this, *task);
    return false;
  }
  task->set_allocated_bytes(task->allocated_bytes() + delta_bytes);
  if (tracer_) {
    tracer_->emit(trace::RecordKind::kMemoryAlloc, task->trace_id(),
                  static_cast<std::uint16_t>(task->node()), 0, delta_bytes,
                  host.memory_used());
  }
  return true;
}

// ---------------------------------------------------------------------------
// Counter integration.
//
// advance_tasks() steps every active task once per event and folds the
// step into the counters on the spot, in task_ptrs_ order. Each counter
// field has one writer domain (node CPU/cache/DRAM: compute and stream
// residents; nic_tx/nic_rx: messages; FsCounters: I/O), so every shared
// accumulator receives its terms chunk by chunk, tasks in list order.
// ---------------------------------------------------------------------------

void World::advance_task(Task& task, double dt) {
  const double before = task.remaining_;
  const TaskRates& rates = task.rates_;
  advance_step(dt, rates.progress, task.completion_tolerance(),
               task.remaining_, task.latency_left_);
  const double progressed = before - task.remaining_;
  const double eff_dt =
      rates.progress > 0.0 ? progressed / rates.progress : 0.0;

  NodeCounters& c = nodes_[static_cast<std::size_t>(task.node_)]->counters();
  TaskCounters& t = task.counters_;
  switch (task.phase_.kind) {
    case PhaseKind::kCompute:
    case PhaseKind::kStream: {
      if (task.profile_.account_user) {
        c.cpu_user_seconds += rates.cpu_share * dt;
      } else {
        c.cpu_sys_seconds += rates.cpu_share * dt;
      }
      c.instructions += rates.instr_rate * eff_dt;
      c.l1_misses += rates.l1_miss_rate * eff_dt;
      c.l2_misses += rates.l2_miss_rate * eff_dt;
      c.l3_misses += rates.l3_miss_rate * eff_dt;
      c.dram_bytes += rates.dram_rate * eff_dt;
      t.cpu_seconds += rates.cpu_share * dt;
      t.instructions += rates.instr_rate * eff_dt;
      t.l2_misses += rates.l2_miss_rate * eff_dt;
      t.l3_misses += rates.l3_miss_rate * eff_dt;
      t.dram_bytes += rates.dram_rate * eff_dt;
      break;
    }
    case PhaseKind::kMessage: {
      t.bytes_sent += progressed;
      c.nic_tx_bytes += progressed;
      if (task.phase_.peer_node >= 0) {
        nodes_[static_cast<std::size_t>(task.phase_.peer_node)]
            ->counters()
            .nic_rx_bytes += progressed;
      }
      break;
    }
    case PhaseKind::kIo: {
      FsCounters& f = fs_.counters();
      t.io_work += progressed;
      switch (task.phase_.io_kind) {
        case IoKind::kMetadata: f.metadata_ops += progressed; break;
        case IoKind::kRead: f.bytes_read += progressed; break;
        case IoKind::kWrite: f.bytes_written += progressed; break;
      }
      break;
    }
    default:
      break;  // kSleep advances but writes no counters
  }
}

void World::mark_node_dirty(int id) {
  if (node_dirty_[static_cast<std::size_t>(id)]) return;
  node_dirty_[static_cast<std::size_t>(id)] = 1;
  dirty_nodes_.push_back(id);
}

void World::mark_all_dirty() {
  for (int i = 0; i < num_nodes(); ++i) mark_node_dirty(i);
  net_dirty_ = true;
  fs_dirty_ = true;
}

bool World::on_task_phase_change(Task& task, const Phase& next) {
  const Phase& old = task.phase_;
  if (!full_recompute_ && same_solver_inputs(old, next)) return true;
  if (in_node_domain(old.kind) || in_node_domain(next.kind))
    mark_node_dirty(task.node_);
  if (old.kind == PhaseKind::kMessage || next.kind == PhaseKind::kMessage)
    net_dirty_ = true;
  if (old.kind == PhaseKind::kIo || next.kind == PhaseKind::kIo)
    fs_dirty_ = true;
  return false;
}

void World::on_task_phase_installed(Task& task) {
  if (task.active() && task.remaining_ <= 0.0 && task.latency_left_ <= 0.0)
    completion_pending_ = true;
}

// ---------------------------------------------------------------------------

void World::advance_tasks(double dt) {
  // dt == 0 still runs: advance_step clamps within-tolerance residues to
  // zero so handle_completions sees them.
  if (dt < 0.0) return;
  for (Task* task : task_ptrs_) {
    if (task->active()) advance_task(*task, dt);
  }
}

void World::handle_completions() {
  // Controllers may finish tasks or wake others; iterate to a fixed point
  // but bound the passes to avoid a buggy controller looping forever.
  // Advancing happens outside this loop, so a task can only be complete
  // after a pass if that pass installed an already-complete phase (a
  // zero-work phase, a wake, a spawn); without one, another pass would
  // find nothing.
  for (int pass = 0; pass < 64; ++pass) {
    completion_pending_ = false;
    // Snapshot: controllers can spawn/kill during iteration. (Reused
    // buffer; the killed_ flag replaces the old O(n) membership re-scan.)
    completion_scratch_ = task_ptrs_;
    for (Task* task : completion_scratch_) {
      if (task->killed_) continue;  // killed by an earlier controller
      if (!task->active()) continue;
      if (task->remaining() <= 0.0 && task->latency_left() <= 0.0)
        task->set_phase(task->next_phase());
    }
    if (!completion_pending_) return;
  }
  throw InvariantError("World: phase-completion cascade did not settle");
}

void World::recompute_rates() {
  if (full_recompute_) mark_all_dirty();

  // Clean domains keep their installed rates -- bit-identical, because
  // the solvers are deterministic functions of inputs that have not
  // changed.
  for (const int id : dirty_nodes_) {
    nodes_[static_cast<std::size_t>(id)]->compute_rates(
        node_tasks_[static_cast<std::size_t>(id)]);
    node_dirty_[static_cast<std::size_t>(id)] = 0;
  }
  dirty_nodes_.clear();

  if (net_dirty_) {
    flow_scratch_.clear();
    for (Task* task : task_ptrs_) {
      if (task->phase().kind == PhaseKind::kMessage) {
        flow_scratch_.push_back(
            Flow{task, task->node(), task->phase().peer_node, 0.0});
      }
    }
    if (!flow_scratch_.empty()) network_.compute_rates(flow_scratch_);
    net_dirty_ = false;
  }

  if (fs_dirty_) {
    fs_.compute_rates(task_ptrs_);
    fs_dirty_ = false;
  }

  if (tracer_ && tracer_->enabled()) trace_rates();
}

/// Emits the rate picture the max-min models just installed: one
/// aggregate record, one per node with active residents (CPU share and
/// DRAM bandwidth totals -- the membw/cachecopy contention channel), and
/// one per active task (progress rate). This is what lets trace_diff say
/// "share 0.42 vs 0.39 on node 7" instead of "a CSV changed".
void World::trace_rates() {
  tracer_->emit(trace::RecordKind::kRateRecompute, 0, 0, task_ptrs_.size());
  agg_scratch_.assign(static_cast<std::size_t>(num_nodes()), RateAgg{});
  for (const Task* task : task_ptrs_) {
    if (!task->active()) continue;
    RateAgg& a = agg_scratch_[static_cast<std::size_t>(task->node())];
    ++a.active;
    a.cpu_share += task->rates().cpu_share;
    a.dram_rate += task->rates().dram_rate;
  }
  for (std::size_t i = 0; i < agg_scratch_.size(); ++i) {
    if (agg_scratch_[i].active == 0) continue;
    tracer_->emit(trace::RecordKind::kNodeRates,
                  static_cast<std::uint32_t>(i), agg_scratch_[i].active, 0,
                  agg_scratch_[i].cpu_share, agg_scratch_[i].dram_rate);
  }
  for (const Task* task : task_ptrs_) {
    if (!task->active()) continue;
    tracer_->emit(trace::RecordKind::kTaskRate, task->trace_id(),
                  static_cast<std::uint16_t>(task->phase().kind), 0,
                  task->rates().progress, task->rates().cpu_share);
  }
}

void World::schedule_next_completion() {
  sim_.cancel(pending_completion_);
  pending_completion_ = EventHandle{};
  double eta = std::numeric_limits<double>::infinity();
  for (const Task* task : task_ptrs_) eta = std::min(eta, task->eta());
  if (!std::isfinite(eta)) return;
  // Event times quantize to the double grid at `now`; a very fast task
  // (e.g. a loopback message at ~1e12 B/s) can have an eta below one ulp,
  // which would schedule an event at exactly `now` and spin forever.
  // Land at least a few ulps in the future so advance_task always makes
  // progress through the residue.
  const double now = sim_.now();
  const double ulp =
      std::nextafter(now, std::numeric_limits<double>::infinity()) - now;
  const double min_step = std::max(4.0 * ulp, 1e-15);
  double target = now + std::max(eta, min_step);
  if (target <= now) target = std::nextafter(now, 1e300);
  pending_completion_ =
      sim_.schedule_at(target, [this] { update_event(); });
}

void World::update_event() {
  if (in_update_) return;  // controllers triggering re-entrant updates
  in_update_ = true;
  advance_tasks(sim_.now() - last_update_);
  last_update_ = sim_.now();
  handle_completions();
  recompute_rates();
  in_update_ = false;
  schedule_next_completion();
}

void World::update() {
  // Public entry point: external callers may have mutated state the
  // hooks cannot see, so re-solve every domain like the original loop.
  mark_all_dirty();
  update_event();
}

void World::enable_monitoring(double period_s, metrics::SampleSink* sink,
                              int sink_node, bool store_samples) {
  require(period_s > 0.0, "enable_monitoring: period must be positive");
  require(stores_.empty(), "enable_monitoring: already enabled");
  require(sink == nullptr || (sink_node >= 0 && sink_node < num_nodes()),
          "enable_monitoring: sink_node out of range");
  for (int i = 0; i < num_nodes(); ++i) {
    stores_.push_back(std::make_unique<metrics::MetricStore>());
    auto collector = std::make_unique<metrics::Collector>(stores_.back().get());
    attach_node_samplers(*collector, *this, i);
    collector->set_store_enabled(store_samples &&
                                 (store_node_ < 0 || i == store_node_));
    if (sink != nullptr && i == sink_node) collector->set_sink(sink);
    collectors_.push_back(std::move(collector));
  }
  sample_all(period_s);
}

void World::set_store_node(int node) {
  require(stores_.empty(), "set_store_node: monitoring already enabled");
  require(node >= -1 && node < num_nodes(),
          "set_store_node: node out of range");
  store_node_ = node;
}

void World::sample_all(double period_s) {
  // Bring rates and counters up to date, then poll every node's samplers.
  update_event();
  for (const auto& collector : collectors_) collector->collect(sim_.now());
  if (tracer_) {
    tracer_->emit(trace::RecordKind::kSample, 0, 0, collectors_.size(),
                  period_s);
  }
  sim_.schedule_in(period_s, [this, period_s] { sample_all(period_s); });
}

void World::attach_tracer(trace::Tracer* tracer) {
  tracer_ = tracer;
  sim_.set_tracer(tracer);
  // Adopt tasks that already exist (attach-before-spawn gives a complete
  // stream; this keeps late attachment consistent rather than silent).
  for (Task* task : task_ptrs_) {
    task->set_tracing(tracer_, task->trace_id());
    if (tracer_) tracer_->set_label(task->trace_id(), task->name());
  }
}

metrics::MetricStore& World::node_store(int id) {
  require(id >= 0 && static_cast<std::size_t>(id) < stores_.size(),
          "node_store: monitoring not enabled or id out of range");
  return *stores_[static_cast<std::size_t>(id)];
}

void World::run_until(double t) { sim_.run_until(t); }

}  // namespace hpas::sim
