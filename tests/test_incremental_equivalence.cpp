// Incremental-engine equivalence: the dirty-set rate recomputation
// (World's default) must be *byte-identical* to the reference
// full-recompute mode (set_full_recompute(true) / HPAS_FULL_RECOMPUTE=1),
// which re-solves every domain on every event exactly like the original
// eager loop. Both modes fold counters in as tasks advance.
//
// Six layers of evidence, strongest first: the fig05 memleak trace
// (every event, rate, memory and sample record), a mixed scenario that
// keeps all three counter domains (node, network, filesystem) busy at
// once, a "storm" world that contests every event boundary (kill, spawn
// and wake bursts at tied timestamps, cross-node messages, filesystem
// writes, cancellation tombstones) compared down to
// every counter's bits, a task whose phases keep their kind but change
// a solver input (message peer, I/O operation) on shared links and disk,
// controllers that read counters mid-completion-pass, and a whole sweep
// output directory (CSVs + traces + summary) for no anomaly and every
// anomaly kind, compared file-by-file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "sim/world.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"
#include "trace/tracer.hpp"

namespace fs = std::filesystem;

namespace {

std::string text_form(const hpas::trace::TraceFile& file) {
  std::ostringstream out;
  hpas::trace::write_text(out, file);
  return out.str();
}

/// The fig05 scenario from the golden-trace pin: a 20 MB/s memory leak on
/// node 0 for 20 simulated seconds, observed for 30 with 1 Hz sampling.
std::string memleak_trace(bool full_recompute) {
  auto world = hpas::sim::make_voltrino_world();
  world->set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(1.0);
  hpas::simanom::inject_memleak(*world, /*node=*/0, /*core=*/0,
                                /*chunk_bytes=*/20.0 * 1024 * 1024,
                                /*chunk_interval_s=*/1.0,
                                /*duration_s=*/20.0);
  world->run_until(30.0);
  return text_form(capture.take());
}

/// All three counter domains at once: membw streaming on node 0 (node
/// domain), netoccupy flows between two nodes (network domain) and
/// metadata clients hammering the MDS (filesystem domain), overlapping in
/// time so phase transitions in one domain interleave with rate
/// recomputes in the others.
std::string mixed_trace(bool full_recompute) {
  auto world = hpas::sim::make_voltrino_world();
  world->set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(0.5);
  hpas::simanom::inject_membw(*world, /*node=*/0, /*core=*/4,
                              /*duration_s=*/12.0, /*intensity=*/0.8);
  hpas::simanom::inject_netoccupy(*world, /*src=*/1, /*dst=*/2,
                                  /*ntasks=*/2,
                                  /*bytes_per_s=*/50.0 * 1024 * 1024,
                                  /*duration_s=*/10.0);
  hpas::simanom::inject_iometadata(*world, /*node=*/3, /*ntasks=*/2,
                                   /*duration_s=*/8.0);
  world->run_until(15.0);
  return text_form(capture.take());
}

TEST(IncrementalEquivalence, MemleakTraceIsByteIdentical) {
  const std::string incremental = memleak_trace(false);
  const std::string full = memleak_trace(true);
  ASSERT_FALSE(incremental.empty());
  EXPECT_EQ(incremental, full)
      << "incremental rate recomputation changed the fig05 trace bytes";
}

TEST(IncrementalEquivalence, MixedDomainTraceIsByteIdentical) {
  const std::string incremental = mixed_trace(false);
  const std::string full = mixed_trace(true);
  ASSERT_FALSE(incremental.empty());
  EXPECT_EQ(incremental, full)
      << "incremental mode diverged with node+network+fs domains active";
}

// --- storm world: every event boundary contested ----------------------

namespace sim = hpas::sim;

/// Bit-exact digest of a double sequence: the raw IEEE-754 payloads.
/// Two digests are equal iff every counter matches to the last bit.
void append_bits(std::string& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
}

std::string counter_digest(sim::World& world) {
  // Advance every task to now first so the digest reads final values,
  // then freeze the bits.
  world.update();
  std::string digest;
  for (int id = 0; id < world.num_nodes(); ++id) {
    const sim::NodeCounters& c = world.node(id).counters();
    for (const double v : {c.cpu_user_seconds, c.cpu_sys_seconds,
                           c.instructions, c.l1_misses, c.l2_misses,
                           c.l3_misses, c.dram_bytes, c.nic_tx_bytes,
                           c.nic_rx_bytes, c.pages_faulted})
      append_bits(digest, v);
  }
  for (const sim::Task* task : world.tasks()) {
    const sim::TaskCounters& c = task->counters();
    for (const double v : {c.cpu_seconds, c.instructions, c.l2_misses,
                           c.l3_misses, c.dram_bytes, c.bytes_sent,
                           c.io_work})
      append_bits(digest, v);
  }
  append_bits(digest, world.filesystem().counters().bytes_written);
  append_bits(digest, world.filesystem().counters().bytes_read);
  append_bits(digest, world.filesystem().counters().metadata_ops);
  return digest;
}

struct StormRun {
  std::string trace;   ///< serialized binary trace bytes
  std::string digest;  ///< bit-exact counter digest
};

/// Byte-compare with a readable failure: on mismatch report the first
/// divergent record, not two binary blobs.
void expect_same_trace(const std::string& got, const std::string& want,
                       const std::string& label) {
  if (got == want) return;
  std::istringstream got_in(got, std::ios::binary);
  std::istringstream want_in(want, std::ios::binary);
  const auto divergence = hpas::trace::diff_traces(
      hpas::trace::read_binary(want_in), hpas::trace::read_binary(got_in));
  ADD_FAILURE() << label << ": traces differ: " << divergence.description;
}

/// A 32-node world where every event boundary is contested: cycling
/// workloads on all nodes, cross-node message flows, filesystem traffic,
/// scheduled kill/spawn/wake storms (several at the same
/// timestamp, exercising the FIFO tie-break) and an event-cancellation
/// burst that leaves tombstones in the queue. `splits` optionally breaks
/// run_until at those times; `switch_at`, when >= 0, flips the
/// full-recompute mode at that run_until boundary.
StormRun run_storm(bool full_recompute, const std::vector<double>& splits = {},
                   double switch_at = -1.0) {
  sim::World world(sim::NodeConfig{},
                   sim::Topology::two_tier(8, 4, 10e9, 18e9),
                   sim::FsConfig{.metadata_ops_per_s = 30000.0,
                                 .disk_write_bw = 5.0e9,
                                 .disk_read_bw = 5.5e9,
                                 .dedicated_mds = true,
                                 .metadata_disk_cost_s = 0.0});
  world.set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world.attach_tracer(&capture.tracer());
  world.enable_monitoring(0.5);

  // Cycling residents on every node; node i messages the diametrically
  // opposite node, so every NIC deposit lands on a second node's counters.
  std::vector<sim::Task*> cyclers;
  const int n = world.num_nodes();
  for (int id = 0; id < n; ++id) {
    sim::TaskProfile profile;
    profile.stream_bw_demand = 2.0e9;
    const int peer = (id + n / 2) % n;
    sim::Task* task = world.spawn_task(
        "cycler" + std::to_string(id), id, id % 4, profile,
        sim::Phase::compute(1.0e9), [peer](sim::Task& t) {
          switch (t.phase().kind) {
            case sim::PhaseKind::kCompute: return sim::Phase::stream(0.5e9);
            case sim::PhaseKind::kStream:
              return sim::Phase::message(peer, 0.25e9);
            case sim::PhaseKind::kMessage:
              return sim::Phase::io(sim::IoKind::kWrite, 64.0e6);
            case sim::PhaseKind::kIo: return sim::Phase::sleep(0.25);
            default: return sim::Phase::compute(1.0e9);
          }
        });
    cyclers.push_back(task);
  }
  // Idle tasks woken externally mid-run -- the spawn path of a BSP
  // barrier release.
  std::vector<sim::Task*> sleepers;
  for (int id = 0; id < n; id += 3) {
    sleepers.push_back(world.spawn_task(
        "idler" + std::to_string(id), id, 5, sim::TaskProfile{},
        sim::Phase::idle(), [](sim::Task&) { return sim::Phase::done(); }));
  }

  sim::Simulator& engine = world.simulator();
  // Kill storm: several kills at the *same* timestamp (FIFO ties).
  for (int i = 0; i < 8; ++i) {
    sim::Task* victim = cyclers[static_cast<std::size_t>(i * 4 + 1)];
    engine.schedule_at(2.0, [&world, victim] {
      if (!victim->killed() && !victim->done()) world.kill_task(victim);
    });
  }
  // Spawn storm at the same timestamp: replacements plus brand-new load.
  for (int i = 0; i < 8; ++i) {
    const int node = i * 4 + 2;
    engine.schedule_at(2.0, [&world, node] {
      world.spawn_task("burst" + std::to_string(node), node, 6,
                       sim::TaskProfile{}, sim::Phase::stream(1.0e9),
                       [](sim::Task& t) {
                         return t.phase().kind == sim::PhaseKind::kStream
                                    ? sim::Phase::compute(0.5e9)
                                    : sim::Phase::done();
                       });
    });
  }
  // Wake storm: external phase changes require an explicit update().
  engine.schedule_at(3.0, [&world, sleepers] {
    for (sim::Task* task : sleepers)
      if (!task->killed() && !task->done())
        task->set_phase(sim::Phase::sleep(0.5));
    world.update();
  });
  // Cancellation burst: schedule far-future events, cancel most of them
  // immediately -- tombstones sit in the queue for the rest of the run.
  engine.schedule_at(5.0, [&engine] {
    std::vector<sim::EventHandle> doomed;
    for (int i = 0; i < 64; ++i)
      doomed.push_back(engine.schedule_at(1.0e6 + i, [] {}));
    for (std::size_t i = 0; i < doomed.size(); ++i)
      if (i % 8 != 0) engine.cancel(doomed[i]);
  });
  double t = 0.0;
  // The mode switch happens from *outside* the event loop, at a run_until
  // boundary -- scheduling it as a simulator event would add a traced
  // event and trivially (legitimately) change the stream.
  if (switch_at >= 0.0) {
    world.run_until(switch_at);
    world.set_full_recompute(!full_recompute);
    t = switch_at;
  }
  for (const double split : splits) {
    world.run_until(split);
    t = split;
  }
  if (t < 8.0) world.run_until(8.0);

  StormRun run;
  run.digest = counter_digest(world);
  std::ostringstream out(std::ios::binary);
  hpas::trace::write_binary(out, capture.take());
  run.trace = out.str();
  return run;
}

TEST(IncrementalEquivalence, StormTraceAndCounterBitsMatchFullRecompute) {
  const StormRun incremental = run_storm(false);
  const StormRun full = run_storm(true);
  ASSERT_FALSE(incremental.trace.empty());
  expect_same_trace(incremental.trace, full.trace, "incremental vs full");
  EXPECT_EQ(incremental.digest, full.digest)
      << "incremental mode changed counter bits";
}

TEST(IncrementalEquivalence, RunUntilSplitsNeverChangeBytes) {
  // Cutting the same simulation at arbitrary run_until boundaries must
  // not move a single bit.
  const StormRun whole = run_storm(false);
  const std::vector<std::vector<double>> split_sets = {
      {2.0, 3.0, 4.0, 5.0},         // exactly on the storm timestamps
      {1.9999, 2.0001, 4.99, 7.5},  // straddling them
      {0.5, 1.0, 1.5, 2.5, 6.125},  // unrelated boundaries
  };
  for (const auto& splits : split_sets) {
    const StormRun cut = run_storm(false, splits);
    expect_same_trace(cut.trace, whole.trace,
                      "splits[0]=" + std::to_string(splits[0]));
    EXPECT_EQ(cut.digest, whole.digest) << "splits[0]=" << splits[0];
  }
}

TEST(IncrementalEquivalence, ModeSwitchMidRunIsInvisible) {
  // The switch lands between events, and the next event re-solves every
  // domain, so it cannot be observed in the output.
  const StormRun whole = run_storm(false);
  for (const bool start_full : {false, true}) {
    const StormRun switched = run_storm(start_full, {}, 3.5);
    const std::string label =
        start_full ? "full -> incremental" : "incremental -> full";
    expect_same_trace(switched.trace, whole.trace, label);
    EXPECT_EQ(switched.digest, whole.digest) << label;
  }
}

// --- same kind, new solver input --------------------------------------

/// One task walks a script of phases on node 0 of a 2x2 two-tier world
/// while long-lived background load shares every resource it touches: a
/// flow 1 -> 2 across the slower inter-switch trunk, a greedy writer, and
/// a compute task on its node. Each adjacent pair of phases keeps its
/// kind but changes what a solver reads (message peer, I/O operation) or
/// changes kind, so a re-solve the incremental engine skips there leaves
/// wrong rates -- the script's and the background's -- and moves both
/// the trace and the counters. The two same-input steps (a second
/// message to peer 2, a second write) check that keeping rates is right.
/// Returns the trace text followed by the counter digest.
std::string same_kind_input_change_run(bool full_recompute) {
  sim::World world(sim::NodeConfig{},
                   sim::Topology::two_tier(2, 2, 10e9, 4e9),
                   sim::FsConfig{.metadata_ops_per_s = 30000.0,
                                 .disk_write_bw = 2.0e9,
                                 .disk_read_bw = 3.0e9,
                                 .dedicated_mds = false,
                                 .metadata_disk_cost_s = 1.0e-5});
  world.set_full_recompute(full_recompute);
  hpas::trace::TraceCapture capture;
  world.attach_tracer(&capture.tracer());

  const auto forever = [](sim::Task& t) { return t.phase(); };
  world.spawn_task("cross", 1, 0, sim::TaskProfile{},
                   sim::Phase::message(2, 1.0e12), forever);
  world.spawn_task("writer", 3, 0, sim::TaskProfile{},
                   sim::Phase::io(sim::IoKind::kWrite, 1.0e12), forever);
  world.spawn_task("neighbour", 0, 1, sim::TaskProfile{},
                   sim::Phase::compute(1.0e13), forever);

  const std::vector<sim::Phase> script = {
      sim::Phase::message(1, 2.0e9),
      sim::Phase::message(2, 2.0e9),  // same kind, new peer
      sim::Phase::message(2, 2.0e9),  // same inputs
      sim::Phase::message(0, 2.0e9),  // loopback
      sim::Phase::io(sim::IoKind::kWrite, 1.0e9),
      sim::Phase::io(sim::IoKind::kWrite, 1.0e9),  // same inputs
      sim::Phase::io(sim::IoKind::kRead, 1.0e9),   // same kind, new op
      sim::Phase::io(sim::IoKind::kMetadata, 3000.0),
      sim::Phase::compute(2.0e9),
      sim::Phase::stream(2.0e9),
  };
  sim::TaskProfile walker;
  walker.stream_bw_demand = 12.5e9;
  sim::Task* task = world.spawn_task(
      "walker", 0, 0, walker, script.front(),
      [script, next = std::size_t{1}](sim::Task&) mutable {
        return next < script.size() ? script[next++] : sim::Phase::done();
      });
  world.run_until(12.0);
  EXPECT_TRUE(task->done()) << "the script did not finish in the window";

  std::string run = text_form(capture.take());
  run += counter_digest(world);
  return run;
}

TEST(IncrementalEquivalence, SameKindInputChangesStillReSolve) {
  const std::string incremental = same_kind_input_change_run(false);
  const std::string full = same_kind_input_change_run(true);
  ASSERT_FALSE(incremental.empty());
  EXPECT_TRUE(incremental == full)
      << "a same-kind phase change with a new peer or I/O kind kept stale "
         "rates";
}

// --- counters read by controllers --------------------------------------

void append_counters(std::string& log, const sim::NodeCounters& c) {
  for (const double v : {c.cpu_user_seconds, c.cpu_sys_seconds,
                         c.instructions, c.l1_misses, c.l2_misses,
                         c.l3_misses, c.dram_bytes, c.nic_tx_bytes,
                         c.nic_rx_bytes, c.pages_faulted})
    append_bits(log, v);
}

/// Three compute tasks on node 0 of voltrino alternate compute with a
/// message to node 1 while a writer keeps the filesystem busy. At every
/// completion each controller logs the bits of node 0's, node 1's and the
/// filesystem's counters as it sees them, inside the completion pass and
/// with no update() call, so whatever the engine has not folded in yet
/// shows up as a difference from full-recompute mode.
std::string controller_counter_log(bool full_recompute) {
  auto world = hpas::sim::make_voltrino_world();
  world->set_full_recompute(full_recompute);
  sim::World* w = world.get();
  std::string log;
  const auto snapshot = [w, &log] {
    append_counters(log, w->node(0).counters());
    append_counters(log, w->node(1).counters());
    const sim::FsCounters& f = w->filesystem().counters();
    for (const double v : {f.metadata_ops, f.bytes_read, f.bytes_written})
      append_bits(log, v);
  };
  world->spawn_task("writer", 2, 0, sim::TaskProfile{},
                    sim::Phase::io(sim::IoKind::kWrite, 256.0e6),
                    [snapshot](sim::Task& t) {
                      snapshot();
                      return t.phase();
                    });
  for (int i = 0; i < 3; ++i) {
    const double work = (1.0 + 0.3 * i) * 0.5e9;
    world->spawn_task(
        "ranker" + std::to_string(i), 0, i, sim::TaskProfile{},
        sim::Phase::compute(work), [snapshot, work, i](sim::Task& t) {
          snapshot();
          return t.phase().kind == sim::PhaseKind::kCompute
                     ? sim::Phase::message(1, (1.0 + i) * 64.0e6)
                     : sim::Phase::compute(work);
        });
  }
  world->run_until(3.0);
  EXPECT_GT(w->filesystem().counters().bytes_written, 0.0);
  EXPECT_GT(w->node(1).counters().nic_rx_bytes, 0.0);
  return log;
}

TEST(IncrementalEquivalence, ControllerReadsSeeExactCounters) {
  const std::string incremental = controller_counter_log(false);
  const std::string full = controller_counter_log(true);
  // Every snapshot is 23 doubles; a handful of completions is not enough
  // to exercise the alternation.
  ASSERT_GT(incremental.size(), 20u * 23u * sizeof(double));
  EXPECT_TRUE(incremental == full)
      << "a controller read counters that had not been folded in";
}

// --- whole-sweep directory comparison ---------------------------------

hpas::runner::SweepGrid equivalence_grid() {
  // fig08-shaped but shortened: one app, no anomaly plus every anomaly
  // kind, fixed monitoring window. Between them they take every
  // same-input transition the engine keeps rates across (compute,
  // stream, sleep, message to the same peer, metadata after metadata)
  // and iobandwidth's write/read alternation, which must re-solve.
  hpas::runner::SweepGrid grid;
  grid.name = "equivalence_grid";
  int index = 0;
  for (const char* anomaly :
       {"none", "cpuoccupy", "cachecopy", "membw", "memleak", "memeater",
        "netoccupy", "iobandwidth", "iometadata"}) {
    hpas::runner::ScenarioSpec spec;
    spec.name = "eq_" + std::string(anomaly);
    spec.app = "CoMD";
    spec.anomaly = anomaly;
    spec.duration_s = 10.0;
    spec.sample_period_s = 1.0;
    spec.seed = hpas::runner::derive_scenario_seed(
        11, static_cast<std::uint64_t>(index++));
    grid.scenarios.push_back(spec);
  }
  return grid;
}

std::map<std::string, std::string> read_dir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files[entry.path().filename().string()] = bytes.str();
  }
  return files;
}

TEST(IncrementalEquivalence, SweepOutputDirectoryIsByteIdentical) {
  const fs::path base =
      fs::path(::testing::TempDir()) /
      ("hpas_equivalence_" +
       std::to_string(::testing::UnitTest::GetInstance()->random_seed()));
  const fs::path inc_dir = base / "incremental";
  const fs::path full_dir = base / "full";
  fs::remove_all(base);

  // Worlds read HPAS_FULL_RECOMPUTE at construction; single-threaded
  // sweeps keep the setenv/run/unsetenv sequence race-free.
  hpas::runner::SweepOptions options;  // one thread
  options.capture_traces = true;
  ::unsetenv("HPAS_FULL_RECOMPUTE");
  const auto incremental = hpas::runner::run_sweep(equivalence_grid(), options);
  ASSERT_TRUE(incremental.ok()) << incremental.first_error();
  hpas::runner::write_outputs(incremental, inc_dir.string());

  ::setenv("HPAS_FULL_RECOMPUTE", "1", 1);
  const auto full = hpas::runner::run_sweep(equivalence_grid(), options);
  ::unsetenv("HPAS_FULL_RECOMPUTE");
  ASSERT_TRUE(full.ok()) << full.first_error();
  hpas::runner::write_outputs(full, full_dir.string());

  const auto inc_files = read_dir(inc_dir);
  const auto full_files = read_dir(full_dir);
  ASSERT_GT(inc_files.size(), 4u);  // CSVs + traces + summary.json
  ASSERT_EQ(inc_files.size(), full_files.size());
  for (const auto& [name, bytes] : inc_files) {
    const auto it = full_files.find(name);
    ASSERT_NE(it, full_files.end()) << name << " missing from full mode";
    EXPECT_EQ(bytes, it->second)
        << name << " differs between incremental and full recompute";
  }
  fs::remove_all(base);
}

}  // namespace
