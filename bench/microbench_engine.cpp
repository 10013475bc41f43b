// Engine + incremental-recompute microbenchmark. Emits BENCH_engine.json:
//
//   engine       raw schedule/fire throughput of a warm Simulator, plus
//                the heap allocations per event in that loop -- asserted
//                to be exactly zero (EventFn small-buffer closures, slot
//                reuse, vector-heap with stable capacity);
//   world        phase-completion events/sec of an N-node scenario under
//                the default incremental engine vs HPAS_FULL_RECOMPUTE
//                reference mode, with the speedup recorded (the CI gate
//                and the acceptance criterion read both numbers);
//   dragonfly1k  events/s and aggregate ops/s (events x resident tasks)
//                of the 1k-node dragonfly preset;
//   rate_solver  microseconds per full rate recompute at 1..64 nodes;
//   sweep        wall-clock seconds for a small in-process sweep grid in
//                both modes.
//
// Exit status is non-zero when a hard contract fails (allocations on the
// warm path, or incremental slower than 3x the reference mode), so the
// bench-smoke CI job doubles as a regression gate even before comparing
// against the checked-in baseline.
//
// Usage: microbench_engine [--out PATH] [--quick]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/peak_rss.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "sim/engine/simulator.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"

// --- global allocation counter ------------------------------------------
// Every path into the heap funnels through these replaceable operators;
// the bench snapshots the counter around warm loops to prove the common
// scheduling path performs no per-event allocation.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) /
                                       static_cast<std::size_t>(align) *
                                       static_cast<std::size_t>(align)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- raw engine throughput ----------------------------------------------

/// Self-rescheduling event chain: each fire schedules the next link with
/// an 8-byte [this] capture, the exact shape of the World's completion
/// and sampling events.
struct Chain {
  hpas::sim::Simulator* sim;
  double period;
  std::uint64_t* fired;
  void fire() {
    ++*fired;
    sim->schedule_in(period, [this] { fire(); });
  }
};

struct EngineResult {
  double events_per_sec = 0.0;
  std::uint64_t allocs = 0;  ///< heap allocations across the warm loop
  std::uint64_t events = 0;
};

EngineResult bench_engine_raw(std::uint64_t events) {
  hpas::sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<Chain> chains(64);
  for (std::size_t i = 0; i < chains.size(); ++i) {
    chains[i] = Chain{&sim, 1e-4 * static_cast<double>(i + 1), &fired};
    sim.schedule_in(chains[i].period, [c = &chains[i]] { c->fire(); });
  }
  // Warm-up: let the heap vector and slot map reach steady-state size.
  while (fired < 10000)
    if (!sim.step()) break;

  const std::uint64_t start_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t target = fired + events;
  const auto start = Clock::now();
  while (fired < target)
    if (!sim.step()) break;
  const double wall = seconds_since(start);
  const std::uint64_t allocs =
      g_alloc_count.load(std::memory_order_relaxed) - start_allocs;
  return {static_cast<double>(events) / wall, allocs, events};
}

// --- world scenario throughput ------------------------------------------

hpas::sim::FsConfig bench_fs() {
  return {.metadata_ops_per_s = 30000.0,
          .disk_write_bw = 5.0e9,
          .disk_read_bw = 5.5e9,
          .dedicated_mds = true,
          .metadata_disk_cost_s = 0.0};
}

/// N nodes, one compute task per node cycling short staggered phases
/// forever: every completion touches exactly one node, which is the case
/// the dirty-set recomputation is built for (and the reference mode
/// re-solves all N nodes plus network plus filesystem on).
struct WorldResult {
  double events_per_sec = 0.0;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;  ///< heap allocations over the measured run
  double wall_s = 0.0;
};

WorldResult bench_world(int nodes, bool full_recompute, double sim_seconds) {
  hpas::sim::World world(hpas::sim::NodeConfig{},
                         hpas::sim::Topology::star(nodes, 10.0e9),
                         bench_fs());
  world.set_full_recompute(full_recompute);
  std::uint64_t completions = 0;
  for (int i = 0; i < nodes; ++i) {
    hpas::sim::TaskProfile profile;
    profile.working_set_bytes = 256.0 * 1024;
    const double work =
        2.0e6 * (1.0 + 0.05 * static_cast<double>(i));  // ~1 ms phases
    world.spawn_task("bench" + std::to_string(i), i, 0, profile,
                     hpas::sim::Phase::compute(work),
                     [&completions, work](hpas::sim::Task&) {
                       ++completions;
                       return hpas::sim::Phase::compute(work);
                     });
  }
  // Warm-up: populate every scratch buffer.
  world.run_until(0.05);
  const std::uint64_t warm_completions = completions;
  const std::uint64_t start_allocs =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto start = Clock::now();
  world.run_until(0.05 + sim_seconds);
  const double wall = seconds_since(start);
  WorldResult r;
  r.events = completions - warm_completions;
  r.allocs = g_alloc_count.load(std::memory_order_relaxed) - start_allocs;
  r.events_per_sec = static_cast<double>(r.events) / wall;
  r.wall_s = wall;
  return r;
}

// --- 1k-node topology throughput -----------------------------------------

/// The dragonfly1k preset (1024 nodes) with one cycling compute task per
/// node. Every event advances all ~1024 tasks and re-solves the dirty
/// node domain, so the honest work metric is *aggregate ops/s* = events
/// x resident tasks / wall. events/s alone would under-credit a large
/// topology, where one event means a thousand task advances.
struct DragonflyResult {
  double events_per_sec = 0.0;
  double agg_ops_per_sec = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t tasks = 0;
};

DragonflyResult bench_dragonfly1k(double sim_seconds) {
  auto world = hpas::sim::make_dragonfly_world();
  const int nodes = world->num_nodes();
  for (int i = 0; i < nodes; ++i) {
    hpas::sim::TaskProfile profile;
    profile.working_set_bytes = 256.0 * 1024;
    const double work =
        2.0e7 * (1.0 + 0.001 * static_cast<double>(i));  // ~10 ms phases
    world->spawn_task("df" + std::to_string(i), i, 0, profile,
                      hpas::sim::Phase::compute(work),
                      [work](hpas::sim::Task&) {
                        return hpas::sim::Phase::compute(work);
                      });
  }
  world->run_until(0.02);  // warm scratch buffers
  const std::uint64_t epochs0 = world->simulator().epochs();
  const auto start = Clock::now();
  world->run_until(0.02 + sim_seconds);
  const double wall = seconds_since(start);
  DragonflyResult r;
  r.epochs = world->simulator().epochs() - epochs0;
  r.tasks = static_cast<std::uint64_t>(nodes);
  r.events_per_sec = static_cast<double>(r.epochs) / wall;
  r.agg_ops_per_sec = static_cast<double>(r.epochs * r.tasks) / wall;
  return r;
}

// --- rate-solver scaling -------------------------------------------------

double bench_rate_solver_us(int nodes, int iterations) {
  hpas::sim::World world(hpas::sim::NodeConfig{},
                         hpas::sim::Topology::star(nodes, 10.0e9),
                         bench_fs());
  for (int i = 0; i < nodes; ++i) {
    hpas::sim::TaskProfile profile;
    world.spawn_task("solve" + std::to_string(i), i, 0, profile,
                     hpas::sim::Phase::compute(1.0e15),
                     [](hpas::sim::Task&) { return hpas::sim::Phase::done(); });
  }
  world.update();  // warm scratch
  const auto start = Clock::now();
  for (int k = 0; k < iterations; ++k) world.update();
  return seconds_since(start) / static_cast<double>(iterations) * 1e6;
}

// --- in-process sweep wall time -----------------------------------------

hpas::runner::SweepGrid bench_grid(double duration_s) {
  hpas::runner::SweepGrid grid;
  grid.name = "bench_grid";
  int index = 0;
  for (const char* anomaly : {"none", "membw", "netoccupy", "memleak"}) {
    hpas::runner::ScenarioSpec spec;
    spec.name = "bench_" + std::string(anomaly);
    spec.app = "CoMD";
    spec.anomaly = anomaly;
    spec.duration_s = duration_s;
    spec.sample_period_s = 1.0;
    spec.run_to_completion = true;  // fig08 semantics: ~200 sim-seconds
    spec.seed = hpas::runner::derive_scenario_seed(
        5, static_cast<std::uint64_t>(index++));
    grid.scenarios.push_back(spec);
  }
  return grid;
}

double bench_sweep_wall(double duration_s, bool full_recompute) {
  if (full_recompute)
    ::setenv("HPAS_FULL_RECOMPUTE", "1", 1);
  else
    ::unsetenv("HPAS_FULL_RECOMPUTE");
  const auto start = Clock::now();
  const auto result =
      hpas::runner::run_sweep(bench_grid(duration_s), {{.threads = 1}});
  ::unsetenv("HPAS_FULL_RECOMPUTE");
  if (!result.ok()) {
    std::fprintf(stderr, "bench sweep failed: %s\n",
                 result.first_error().c_str());
    std::exit(2);
  }
  return seconds_since(start);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_engine.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH] [--quick]\n", argv[0]);
      return 2;
    }
  }

  const std::uint64_t engine_events = quick ? 200000 : 1000000;
  const double world_sim_s = quick ? 0.5 : 2.0;
  const int world_nodes = 64;
  const double sweep_duration_s = quick ? 10.0 : 30.0;
  const int solver_iters = quick ? 300 : 2000;

  int failures = 0;
  hpas::Json doc = hpas::Json::object();
  doc.set("suite", "engine");
  doc.set("quick", quick);

  // Raw engine: throughput and the zero-allocation contract.
  const EngineResult engine = bench_engine_raw(engine_events);
  std::printf("engine: %.3g events/s, %llu allocs / %llu events\n",
              engine.events_per_sec,
              static_cast<unsigned long long>(engine.allocs),
              static_cast<unsigned long long>(engine.events));
  if (engine.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: warm schedule/fire loop allocated %llu times\n",
                 static_cast<unsigned long long>(engine.allocs));
    ++failures;
  }
  {
    hpas::Json section = hpas::Json::object();
    section.set("events_per_sec", engine.events_per_sec);
    section.set("events", engine.events);
    section.set("allocs_warm_loop", engine.allocs);
    doc.set("engine", std::move(section));
  }

  // World scenario: incremental vs reference full recompute.
  const WorldResult incremental =
      bench_world(world_nodes, /*full_recompute=*/false, world_sim_s);
  const WorldResult full =
      bench_world(world_nodes, /*full_recompute=*/true, world_sim_s);
  const double speedup = incremental.events_per_sec / full.events_per_sec;
  std::printf(
      "world(%d nodes): incremental %.3g events/s, full %.3g events/s "
      "(speedup %.2fx); incremental allocs %llu over %llu events\n",
      world_nodes, incremental.events_per_sec, full.events_per_sec, speedup,
      static_cast<unsigned long long>(incremental.allocs),
      static_cast<unsigned long long>(incremental.events));
  if (speedup < 3.0) {
    std::fprintf(stderr, "FAIL: incremental speedup %.2fx is below 3x\n",
                 speedup);
    ++failures;
  }
  // Amortized-zero contract: stray one-off capacity growths are allowed,
  // per-event allocation (allocs scaling with the event count) is not.
  if (incremental.allocs * 1000 >= incremental.events) {
    std::fprintf(stderr,
                 "FAIL: world event loop allocated %llu times over %llu "
                 "events (not amortized-zero)\n",
                 static_cast<unsigned long long>(incremental.allocs),
                 static_cast<unsigned long long>(incremental.events));
    ++failures;
  }
  {
    hpas::Json section = hpas::Json::object();
    section.set("nodes", world_nodes);
    section.set("incremental_events_per_sec", incremental.events_per_sec);
    section.set("full_recompute_events_per_sec", full.events_per_sec);
    section.set("speedup", speedup);
    section.set("incremental_allocs_warm_loop", incremental.allocs);
    section.set("events_each_mode", incremental.events);
    doc.set("world", std::move(section));
  }

  // 1k-node dragonfly, serial engine.
  {
    const DragonflyResult r = bench_dragonfly1k(quick ? 0.1 : 0.4);
    std::printf("dragonfly1k(1k nodes): %.3g events/s, %.3g agg ops/s\n",
                r.events_per_sec, r.agg_ops_per_sec);
    hpas::Json section = hpas::Json::object();
    section.set("hw_threads", static_cast<std::uint64_t>(
                                  std::thread::hardware_concurrency()));
    section.set("events_per_sec", r.events_per_sec);
    section.set("agg_ops_per_sec", r.agg_ops_per_sec);
    section.set("epochs", r.epochs);
    section.set("tasks", r.tasks);
    doc.set("dragonfly1k", std::move(section));
  }

  // Rate-solver latency scaling.
  {
    hpas::Json section = hpas::Json::array();
    for (const int nodes : {1, 2, 4, 8, 16, 32, 64}) {
      const double us = bench_rate_solver_us(nodes, solver_iters);
      std::printf("rate solver: %2d nodes, %.2f us/solve\n", nodes, us);
      hpas::Json row = hpas::Json::object();
      row.set("nodes", nodes);
      row.set("us_per_solve", us);
      section.push_back(std::move(row));
    }
    doc.set("rate_solver", std::move(section));
  }

  // Whole-sweep wall time, both modes.
  {
    const double inc_wall = bench_sweep_wall(sweep_duration_s, false);
    const double full_wall = bench_sweep_wall(sweep_duration_s, true);
    std::printf("sweep: incremental %.4fs, full %.4fs\n", inc_wall,
                full_wall);
    hpas::Json section = hpas::Json::object();
    section.set("scenario_duration_s", sweep_duration_s);
    section.set("incremental_wall_s", inc_wall);
    section.set("full_recompute_wall_s", full_wall);
    doc.set("sweep", std::move(section));
  }

  doc.set("peak_rss_bytes", hpas::peak_rss_bytes());
  std::printf("peak RSS: %.1f MiB\n",
              static_cast<double>(hpas::peak_rss_bytes()) / (1024.0 * 1024.0));

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  out << doc.dump(2);
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
