// Integration tests for the World: fluid-DES timing, phase transitions,
// memory/OOM, monitoring, and determinism.
#include "sim/world.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/cluster.hpp"

namespace hpas::sim {
namespace {

World make_small_world() {
  return World(NodeConfig{}, Topology::two_tier(2, 2, 10e9, 18e9),
               FsConfig{});
}

TEST(World, SleepPhaseTimingIsExact) {
  World world = make_small_world();
  int wakes = 0;
  world.spawn_task("sleeper", 0, 0, TaskProfile{}, Phase::sleep(2.5),
                   [&wakes](Task&) {
                     ++wakes;
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_EQ(wakes, 1);
}

TEST(World, ComputeDurationMatchesRates) {
  World world = make_small_world();
  TaskProfile profile;
  profile.ips_peak = 2.0e9;
  profile.m1_base = 0; profile.m1_max = 0;
  profile.m2_base = 0; profile.m2_max = 0;
  profile.m3_base = 0; profile.m3_max = 0;
  double finish_time = -1.0;
  // 4e9 instructions at 2e9 instr/s (no stalls, dedicated core) = 2 s.
  world.spawn_task("burner", 0, 0, profile, Phase::compute(4.0e9),
                   [&](Task&) {
                     finish_time = world.now();
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_NEAR(finish_time, 2.0, 1e-6);
}

TEST(World, MessageTransferTimeIncludesLatencyAndBandwidth) {
  World world = make_small_world();
  TaskProfile profile;
  profile.msg_latency_s = 1e-3;
  double finish_time = -1.0;
  // 10 GB over the 10 GB/s NIC (intra-switch) = 1 s + 1 ms latency.
  world.spawn_task("sender", 0, 0, profile, Phase::message(1, 10.0e9),
                   [&](Task&) {
                     finish_time = world.now();
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_NEAR(finish_time, 1.001, 1e-6);
}

TEST(World, IoPhaseUsesFilesystem) {
  World world(NodeConfig{}, Topology::star(2, 1e9),
              FsConfig{.metadata_ops_per_s = 1000,
                       .disk_write_bw = 100e6,
                       .disk_read_bw = 100e6,
                       .dedicated_mds = true,
                       .metadata_disk_cost_s = 0.0});
  double finish_time = -1.0;
  world.spawn_task("writer", 0, 0, TaskProfile{},
                   Phase::io(IoKind::kWrite, 200e6), [&](Task&) {
                     finish_time = world.now();
                     return Phase::done();
                   });
  world.run_until(10.0);
  EXPECT_NEAR(finish_time, 2.0, 1e-6);
  EXPECT_NEAR(world.filesystem().counters().bytes_written, 200e6, 1e3);
}

TEST(World, PhaseChainsRunInSequence) {
  World world = make_small_world();
  std::vector<PhaseKind> seen;
  world.spawn_task("chain", 0, 0, TaskProfile{}, Phase::sleep(1.0),
                   [&](Task& task) {
                     seen.push_back(task.phase().kind);
                     switch (seen.size()) {
                       case 1: return Phase::compute(1e9);
                       case 2: return Phase::message(1, 1e9);
                       case 3: return Phase::io(IoKind::kRead, 1e6);
                       default: return Phase::done();
                     }
                   });
  world.run_until(100.0);
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0], PhaseKind::kSleep);
  EXPECT_EQ(seen[1], PhaseKind::kCompute);
  EXPECT_EQ(seen[2], PhaseKind::kMessage);
  EXPECT_EQ(seen[3], PhaseKind::kIo);
}

TEST(World, IdleTasksWakeOnExternalSetPhase) {
  World world = make_small_world();
  bool woke = false;
  Task* idler = world.spawn_task("idler", 0, 0, TaskProfile{}, Phase::idle(),
                                 [&](Task&) {
                                   woke = true;
                                   return Phase::done();
                                 });
  world.run_until(1.0);
  EXPECT_FALSE(woke);
  idler->set_phase(Phase::sleep(0.5));
  world.update();
  world.run_until(2.0);
  EXPECT_TRUE(woke);
}

TEST(World, MemoryAllocationAdjustsNodeGauge) {
  World world = make_small_world();
  Task* task = world.spawn_task("alloc", 0, 0, TaskProfile{},
                                Phase::sleep(100.0),
                                [](Task&) { return Phase::done(); });
  const double free_before = world.node(0).memory_free();
  EXPECT_TRUE(world.allocate_memory(task, 1e9));
  EXPECT_NEAR(world.node(0).memory_free(), free_before - 1e9, 1.0);
  EXPECT_DOUBLE_EQ(task->allocated_bytes(), 1e9);
}

TEST(World, DefaultOomKillsRequesterAndFreesMemory) {
  NodeConfig config;
  config.memory_bytes = 4.0 * 1024 * 1024 * 1024;
  config.os_base_memory = 1.0 * 1024 * 1024 * 1024;
  World world(config, Topology::star(1, 1e9), FsConfig{});
  Task* hog = world.spawn_task("hog", 0, 0, TaskProfile{}, Phase::sleep(1e6),
                               [](Task&) { return Phase::done(); });
  EXPECT_TRUE(world.allocate_memory(hog, 2.5e9));
  EXPECT_FALSE(world.allocate_memory(hog, 2.5e9));  // would exceed
  EXPECT_TRUE(hog->done());                          // OOM-killed
  EXPECT_NEAR(world.node(0).memory_free(), 3.0 * 1024 * 1024 * 1024, 1e6);
}

TEST(World, CustomOomHandlerInvoked) {
  NodeConfig config;
  config.memory_bytes = 2.0 * 1024 * 1024 * 1024;
  config.os_base_memory = 1.0 * 1024 * 1024 * 1024;
  World world(config, Topology::star(1, 1e9), FsConfig{});
  int oom_calls = 0;
  world.set_oom_handler([&oom_calls](World&, Task&) { ++oom_calls; });
  Task* task = world.spawn_task("t", 0, 0, TaskProfile{}, Phase::sleep(1e6),
                                [](Task&) { return Phase::done(); });
  EXPECT_FALSE(world.allocate_memory(task, 5e9));
  EXPECT_EQ(oom_calls, 1);
  EXPECT_FALSE(task->done());  // our handler chose not to kill
}

TEST(World, KillTaskReleasesResources) {
  World world = make_small_world();
  TaskProfile profile;
  Task* victim = world.spawn_task("victim", 0, 0, profile,
                                  Phase::compute(1e15),
                                  [](Task&) { return Phase::done(); });
  world.allocate_memory(victim, 1e9);
  const double free_before_kill = world.node(0).memory_free();
  world.kill_task(victim);
  EXPECT_TRUE(victim->done());
  EXPECT_NEAR(world.node(0).memory_free(), free_before_kill + 1e9, 1.0);
}

TEST(World, MonitoringCollectsEverySecond) {
  World world = make_small_world();
  world.enable_monitoring(1.0);
  world.spawn_task("burner", 0, 0, TaskProfile{}, Phase::compute(1e15),
                   [](Task&) { return Phase::done(); });
  world.run_until(10.0);
  const auto& store = world.node_store(0);
  const auto& user = store.series({"user", "procstat"});
  EXPECT_GE(user.size(), 10u);
  // Counter grows: one busy core at 100 jiffies/s.
  const auto deltas = user.deltas();
  EXPECT_NEAR(deltas.back(), 100.0, 1.0);
}

TEST(World, MonitoringCoversAllSamplers) {
  World world = make_small_world();
  world.enable_monitoring(1.0);
  world.run_until(3.0);
  const auto& store = world.node_store(1);
  EXPECT_TRUE(store.contains({"user", "procstat"}));
  EXPECT_TRUE(store.contains({"Memfree", "meminfo"}));
  EXPECT_TRUE(store.contains({"pgfault", "vmstat"}));
  EXPECT_TRUE(store.contains({"INST_RETIRED:ANY", "spapiHASW"}));
  EXPECT_TRUE(store.contains(
      {"AR_NIC_NETMON_ORB_EVENT_CNTR_REQ_FLITS", "aries_nic_mmr"}));
}

TEST(World, SimSamplerBuffersKeepTheirAddresses) {
  // Each node sampler owns its buffer and rewrites only the values, so
  // the ids a sink is handed sit at the same addresses on every poll.
  struct AddressSink final : metrics::SampleSink {
    void on_sample(const metrics::MetricId& id, double, double) override {
      seen.push_back(&id);
    }
    std::vector<const metrics::MetricId*> seen;
  };
  World world = make_small_world();
  AddressSink sink;
  world.enable_monitoring(1.0, &sink, 1, /*store_samples=*/false);
  world.run_until(4.5);
  constexpr std::size_t kPerPoll = 13;  // 3 + 2 + 1 + 5 + 2 metrics
  ASSERT_EQ(sink.seen.size(), 5 * kPerPoll);  // polls at t = 0..4
  for (std::size_t i = kPerPoll; i < sink.seen.size(); ++i)
    EXPECT_EQ(sink.seen[i], sink.seen[i - kPerPoll]) << "sample " << i;
}

TEST(World, NicCountersTrackMessageBytes) {
  World world = make_small_world();
  world.spawn_task("sender", 0, 0, TaskProfile{}, Phase::message(1, 5e9),
                   [](Task&) { return Phase::done(); });
  world.run_until(10.0);
  EXPECT_NEAR(world.node(0).counters().nic_tx_bytes, 5e9, 1e3);
  EXPECT_NEAR(world.node(1).counters().nic_rx_bytes, 5e9, 1e3);
}

TEST(World, DeterministicAcrossRuns) {
  auto run_once = [] {
    World world(NodeConfig{}, Topology::two_tier(2, 2, 10e9, 18e9),
                FsConfig{});
    double finish = -1;
    TaskProfile profile;
    profile.working_set_bytes = 30e6;
    world.spawn_task("a", 0, 0, profile, Phase::compute(5e9), [&](Task& t) {
      if (t.phase().kind == PhaseKind::kCompute)
        return Phase::message(2, 1e8);
      finish = 1.0;
      return Phase::done();
    });
    world.spawn_task("b", 0, 0, profile, Phase::compute(3e9),
                     [](Task&) { return Phase::done(); });
    world.run_until(100.0);
    return world.node(0).counters().instructions;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(World, SpawnValidatesPlacement) {
  World world = make_small_world();
  EXPECT_THROW(world.spawn_task("x", 99, 0, TaskProfile{}, Phase::idle(),
                                [](Task&) { return Phase::done(); }),
               InvariantError);
  EXPECT_THROW(world.spawn_task("x", 0, 999, TaskProfile{}, Phase::idle(),
                                [](Task&) { return Phase::done(); }),
               InvariantError);
}

TEST(VoltrinoPreset, MatchesPaperHardware) {
  auto world = make_voltrino_world();
  EXPECT_EQ(world->num_nodes(), 8);
  EXPECT_EQ(world->node(0).config().cores, 32);
  EXPECT_NEAR(world->node(0).config().l3_bytes, 40.0 * 1024 * 1024, 1.0);
  EXPECT_TRUE(world->filesystem().config().dedicated_mds);
}

TEST(ChameleonPreset, MatchesPaperSetup) {
  auto world = make_chameleon_world();
  EXPECT_EQ(world->num_nodes(), 6);
  EXPECT_EQ(world->node(0).config().cores, 24);
  EXPECT_FALSE(world->filesystem().config().dedicated_mds);
}

}  // namespace
}  // namespace hpas::sim
