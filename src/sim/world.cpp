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

/// Deferred-integration chunk log bound. When an update would push the
/// log past this, every domain is settled first and the log truncated, so
/// memory stays O(1) in simulated time. The bound only affects *when*
/// replay happens, never its arithmetic.
constexpr std::size_t kMaxChunkLog = 1024;

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
  node_cursor_.assign(static_cast<std::size_t>(n), 0);
  node_active_.assign(static_cast<std::size_t>(n), 0);
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
  // set_phase(done) settles the victim's counter domain through the
  // chunk log; the not-yet-logged interval since the last update is
  // deliberately dropped for the victim (a killed task accrues nothing
  // for the partial interval it died in -- the original eager loop had
  // the same semantics because the erase happened before its update).
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
// Deferred counter integration.
//
// advance_tasks() moves every active task's remaining-work eagerly (the
// completion scan needs it each event) but only *logs* the dt chunk; the
// counter arithmetic below runs later, when a domain is next observed.
// Replay walks chunks outermost and a domain's members innermost, in
// task_ptrs_ order -- the exact fold order the eager loop used for every
// shared accumulator -- and advances each task's shadow
// (sync_remaining_, sync_latency_) through the same advance_step calls,
// so progressed/eff_dt and every += reproduce bit-for-bit.
//
// The invariant that makes membership-by-current-phase exact: any phase
// change (and any profile mutation or rate reinstall) settles the domains
// it touches *first*, so within a domain's pending replay range no
// member's phase, profile, or rates ever changed.
// ---------------------------------------------------------------------------

void World::apply_counter_chunk(Task& task, double dt) {
  const double before = task.sync_remaining_;
  const TaskRates rates = task.rates_;
  Task::advance_step(dt, rates.progress, task.completion_tolerance(),
                     task.sync_remaining_, task.sync_latency_);
  const double progressed = before - task.sync_remaining_;
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
      break;  // kSleep advances the shadow but writes no counters
  }
}

void World::sync_node_domain(int id) {
  const auto uid = static_cast<std::size_t>(id);
  std::uint32_t& cursor = node_cursor_[uid];
  const auto end = static_cast<std::uint32_t>(chunk_dt_.size());
  if (cursor == end) return;
  if (node_active_[uid] == 0) {
    // No compute/stream/sleep resident since the last settle (every
    // membership change settles first), so the range is a no-op.
    cursor = end;
    return;
  }
  const std::vector<Task*>& residents = node_tasks_[uid];
  for (std::uint32_t k = cursor; k < end; ++k) {
    const double dt = chunk_dt_[k];
    for (Task* task : residents) {
      const PhaseKind kind = task->phase_.kind;
      if (kind == PhaseKind::kCompute || kind == PhaseKind::kStream ||
          kind == PhaseKind::kSleep) {
        apply_counter_chunk(*task, dt);
      }
    }
  }
  cursor = end;
}

void World::sync_network_domain() {
  const auto end = static_cast<std::uint32_t>(chunk_dt_.size());
  if (net_cursor_ == end) return;
  if (message_tasks_ == 0) {
    net_cursor_ = end;
    return;
  }
  for (std::uint32_t k = net_cursor_; k < end; ++k) {
    const double dt = chunk_dt_[k];
    for (Task* task : task_ptrs_) {
      if (task->phase_.kind == PhaseKind::kMessage)
        apply_counter_chunk(*task, dt);
    }
  }
  net_cursor_ = end;
}

void World::sync_fs_domain() {
  const auto end = static_cast<std::uint32_t>(chunk_dt_.size());
  if (fs_cursor_ == end) return;
  if (io_tasks_ == 0) {
    fs_cursor_ = end;
    return;
  }
  for (std::uint32_t k = fs_cursor_; k < end; ++k) {
    const double dt = chunk_dt_[k];
    for (Task* task : task_ptrs_) {
      if (task->phase_.kind == PhaseKind::kIo) apply_counter_chunk(*task, dt);
    }
  }
  fs_cursor_ = end;
}

void World::sync_all_domains() {
  if (!chunk_dt_.empty()) {
    for (int i = 0; i < num_nodes(); ++i) sync_node_domain(i);
    sync_network_domain();
    sync_fs_domain();
  }
  chunk_dt_.clear();
  std::fill(node_cursor_.begin(), node_cursor_.end(), 0u);
  net_cursor_ = 0;
  fs_cursor_ = 0;
}

void World::sync_domain_of(PhaseKind kind, int node_id) {
  switch (kind) {
    case PhaseKind::kCompute:
    case PhaseKind::kStream:
    case PhaseKind::kSleep:
      sync_node_domain(node_id);
      break;
    case PhaseKind::kMessage:
      sync_network_domain();
      break;
    case PhaseKind::kIo:
      sync_fs_domain();
      break;
    default:
      break;  // idle/done belong to no counter domain
  }
}

void World::note_domain_entry(PhaseKind kind, int node_id, int delta) {
  switch (kind) {
    case PhaseKind::kCompute:
    case PhaseKind::kStream:
    case PhaseKind::kSleep:
      node_active_[static_cast<std::size_t>(node_id)] += delta;
      break;
    case PhaseKind::kMessage:
      message_tasks_ += delta;
      break;
    case PhaseKind::kIo:
      io_tasks_ += delta;
      break;
    default:
      break;
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

void World::on_task_phase_change(Task& task, const Phase& next) {
  const PhaseKind old_kind = task.phase_.kind;
  sync_domain_of(old_kind, task.node_);
  sync_domain_of(next.kind, task.node_);
  note_domain_entry(old_kind, task.node_, -1);
  note_domain_entry(next.kind, task.node_, +1);
  mark_node_dirty(task.node_);
  if (old_kind == PhaseKind::kMessage || next.kind == PhaseKind::kMessage)
    net_dirty_ = true;
  if (old_kind == PhaseKind::kIo || next.kind == PhaseKind::kIo)
    fs_dirty_ = true;
}

void World::on_task_phase_installed(Task& task) {
  task.sync_remaining_ = task.remaining_;
  task.sync_latency_ = task.latency_left_;
}

void World::set_full_recompute(bool on) {
  if (on == full_recompute_) return;
  sync_all_domains();
  full_recompute_ = on;
}

// ---------------------------------------------------------------------------

void World::advance_tasks(double dt) {
  // dt == 0 still runs: Task::advance clamps within-tolerance residues to
  // zero so handle_completions sees them.
  if (dt < 0.0) return;
  if (chunk_dt_.size() >= kMaxChunkLog) sync_all_domains();
  chunk_dt_.push_back(dt);
  for (Task* task : task_ptrs_) {
    if (!task->active()) continue;
    task->advance(dt);
  }
  // Reference mode: integrate every counter immediately, exactly like the
  // original eager loop (the replay arithmetic is the same; the chunk is
  // just consumed on the spot).
  if (full_recompute_) sync_all_domains();
}

void World::handle_completions() {
  // Controllers may finish tasks or wake others; iterate to a fixed point
  // but bound the passes to avoid a buggy controller looping forever.
  for (int pass = 0; pass < 64; ++pass) {
    bool any = false;
    // Snapshot: controllers can spawn/kill during iteration. (Reused
    // buffer; the killed_ flag replaces the old O(n) membership re-scan.)
    completion_scratch_ = task_ptrs_;
    for (Task* task : completion_scratch_) {
      if (task->killed_) continue;  // killed by an earlier controller
      if (!task->active()) continue;
      if (task->remaining() <= 0.0 && task->latency_left() <= 0.0) {
        task->set_phase(task->next_phase());
        any = true;
      }
    }
    if (!any) return;
  }
  throw InvariantError("World: phase-completion cascade did not settle");
}

void World::recompute_rates() {
  if (full_recompute_) mark_all_dirty();

  // Each dirty domain settles its deferred counters (with the rates that
  // were in effect) before new rates are installed. Clean domains keep
  // their installed rates -- bit-identical, because the solvers are
  // deterministic functions of inputs that have not changed.
  for (const int id : dirty_nodes_) {
    sync_node_domain(id);
    nodes_[static_cast<std::size_t>(id)]->compute_rates(
        node_tasks_[static_cast<std::size_t>(id)]);
    node_dirty_[static_cast<std::size_t>(id)] = 0;
  }
  dirty_nodes_.clear();

  if (net_dirty_) {
    sync_network_domain();
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
    sync_fs_domain();
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
  // Land at least a few ulps in the future so advance() always makes
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
  // hooks cannot see, so behave exactly like the original full loop --
  // re-solve every domain and settle every counter.
  mark_all_dirty();
  if (in_update_) return;  // the enclosing update's recompute covers it
  update_event();
  sync_all_domains();
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
    collector->set_store_enabled(store_samples);
    if (sink != nullptr && i == sink_node) collector->set_sink(sink);
    collectors_.push_back(std::move(collector));
  }
  sample_all(period_s);
}

void World::sample_all(double period_s) {
  // Bring rates and counters up to date, then poll every node's samplers.
  update_event();
  sync_all_domains();
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

void World::run_until(double t) {
  sim_.run_until(t);
  // Callers read counters after run_until; settle the deferred ranges so
  // they observe exactly what the eager loop would have produced.
  sync_all_domains();
}

}  // namespace hpas::sim
