// Tests for the dragonfly-lite topology and the 1024-node "dragonfly1k"
// preset built on it.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace hpas::sim {
namespace {

// 2 groups x 2 routers x 2 nodes = 8 nodes, 4 routers.
Topology small_dragonfly() {
  return Topology::dragonfly(2, 2, 2, 10e9, 20e9, 15e9);
}

std::unique_ptr<Task> message_task(int src, int dst) {
  TaskProfile profile;
  auto task = std::make_unique<Task>("msg", src, 0, profile,
                                     [](Task&) { return Phase::done(); });
  task->set_phase(Phase::message(dst, 1e9));
  return task;
}

TEST(Dragonfly, Shape) {
  const Topology topo = small_dragonfly();
  EXPECT_EQ(topo.num_nodes, 8);
  EXPECT_EQ(topo.num_switches, 4);
  // 8 NIC + 2 local (1 per group) + 1 global.
  EXPECT_EQ(topo.trunks.size(), 11u);
}

TEST(Dragonfly, LargerInstanceTrunkCount) {
  // 4 groups x 4 routers x 2 nodes: 32 NIC + 4*C(4,2)=24 local +
  // C(4,2)=6 global.
  const Topology topo = Topology::dragonfly(4, 4, 2, 1, 1, 1);
  EXPECT_EQ(topo.num_nodes, 32);
  EXPECT_EQ(topo.trunks.size(), 32u + 24u + 6u);
}

TEST(Dragonfly, PathLengths) {
  Network net(small_dragonfly());
  // Same router: node -> router -> node.
  EXPECT_EQ(net.path(0, 1).size(), 2u);
  // Same group, different router: + one local hop.
  EXPECT_EQ(net.path(0, 2).size(), 3u);
  // Different group: at most nic + local + global + local + nic.
  EXPECT_LE(net.path(0, 7).size(), 5u);
  EXPECT_GE(net.path(0, 7).size(), 3u);
}

TEST(Dragonfly, GlobalTrunkIsTheInterGroupBottleneck) {
  // Saturate the global link with several cross-group flows: their sum
  // must not exceed the global capacity.
  Network net(Topology::dragonfly(2, 2, 4, 10e9, 40e9, 15e9));
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<Flow> flows;
  // Group 0 nodes: 0..7, group 1 nodes: 8..15.
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(message_task(i, 8 + i));
    flows.push_back({tasks.back().get(), i, 8 + i, 0.0});
  }
  net.compute_rates(flows);
  double total = 0.0;
  for (const Flow& flow : flows) {
    EXPECT_GT(flow.rate, 0.0);
    total += flow.rate;
  }
  EXPECT_LE(total, 15e9 + 1.0);
  EXPECT_GT(total, 14e9);  // and it is actually saturated
}

TEST(Dragonfly, IntraGroupTrafficAvoidsGlobalLinks) {
  Network net(Topology::dragonfly(2, 2, 4, 10e9, 40e9, 15e9));
  auto cross = message_task(0, 8);   // inter-group
  auto local = message_task(1, 4);   // intra-group, different router
  std::vector<Flow> flows = {{cross.get(), 0, 8, 0.0},
                             {local.get(), 1, 4, 0.0}};
  net.compute_rates(flows);
  // Both are NIC-limited: no shared bottleneck between them.
  EXPECT_NEAR(flows[0].rate, 10e9, 1.0);
  EXPECT_NEAR(flows[1].rate, 10e9, 1.0);
}

TEST(Dragonfly, ValidatesDimensions) {
  EXPECT_THROW(Topology::dragonfly(0, 1, 1, 1, 1, 1), InvariantError);
  EXPECT_THROW(Topology::dragonfly(1, 0, 1, 1, 1, 1), InvariantError);
  EXPECT_THROW(Topology::dragonfly(1, 1, 0, 1, 1, 1), InvariantError);
}

TEST(Dragonfly, ConnectedForVariousSizes) {
  // Building a Network verifies connectivity (throws otherwise).
  for (const auto& [g, r, n] :
       std::vector<std::tuple<int, int, int>>{{1, 1, 2}, {2, 1, 1},
                                              {3, 2, 2}, {4, 4, 2}}) {
    EXPECT_NO_THROW(Network(Topology::dragonfly(g, r, n, 1e9, 2e9, 1e9)));
  }
}

// --- dragonfly1k preset ------------------------------------------------

/// Sparse workload on the 1k-node dragonfly: compute/message cyclers on
/// every 16th node (64 tasks), peers a half-machine away so flows cross
/// groups. Sparse keeps the smoke inside the ctest budget; the topology,
/// not the task count, is what scales here.
std::string dragonfly_trace(bool full_recompute, double duration) {
  auto world = make_dragonfly_world();
  EXPECT_EQ(world->num_nodes(), 1024);
  world->set_full_recompute(full_recompute);
  trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  const int n = world->num_nodes();
  for (int id = 0; id < n; id += 16) {
    const int peer = (id + n / 2) % n;
    world->spawn_task(std::string("t").append(std::to_string(id)), id, 0,
                      TaskProfile{}, Phase::compute(0.5e9), [peer](Task& t) {
                        return t.phase().kind == PhaseKind::kCompute
                                   ? Phase::message(peer, 0.1e9)
                                   : Phase::compute(0.5e9);
                      });
  }
  world->run_until(duration);
  std::ostringstream out(std::ios::binary);
  trace::write_binary(out, capture.take());
  return out.str();
}

TEST(Dragonfly, ThousandNodeTraceMatchesFullRecompute) {
  const std::string incremental = dragonfly_trace(false, 3.0);
  ASSERT_FALSE(incremental.empty());
  EXPECT_EQ(incremental, dragonfly_trace(true, 3.0));
}

TEST(Dragonfly, PendingEventsCountsLiveOnlyOnLargeQueue) {
  auto world = make_dragonfly_world();
  Simulator& sim = world->simulator();
  const std::size_t before = sim.pending_events();

  std::vector<EventHandle> handles;
  for (int i = 0; i < 512; ++i)
    handles.push_back(sim.schedule_at(100.0 + i, [] {}));
  EXPECT_EQ(sim.pending_events(), before + 512);

  // Cancel a slice: live count drops immediately, the corpses stay
  // queued as tombstones (we are under the compaction floor).
  for (std::size_t i = 0; i < handles.size(); i += 2) sim.cancel(handles[i]);
  EXPECT_EQ(sim.pending_events(), before + 256);
  EXPECT_EQ(sim.queued_tombstones(), 256u);
  EXPECT_LE(sim.queued_tombstones(), Simulator::compaction_floor());

  // Firing the survivors drains live events but never counts tombstones.
  world->run_until(100.0 + 512);
  EXPECT_EQ(sim.pending_events(), before);
}

std::map<std::string, std::string> dir_contents(
    const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "sweep.journal") continue;  // wall times: not comparable
    std::ifstream in(entry.path(), std::ios::binary);
    files[name] = {std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  }
  return files;
}

TEST(Dragonfly, JournaledSweepWithThousandNodeSystemResumesByteIdentical) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "hpas-dragonfly-resume";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  runner::SweepGrid grid;
  grid.name = "dragonfly-resume";
  int index = 0;
  for (const char* system : {"voltrino", "voltrino", "dragonfly1k"}) {
    runner::ScenarioSpec spec;
    spec.name = "st" + std::to_string(index);
    spec.system = system;
    spec.app = "none";
    spec.anomaly = index == 1 ? "membw" : "none";
    spec.duration_s = 2.0;
    spec.sample_period_s = 1.0;
    spec.seed = 7000 + static_cast<std::uint64_t>(index);
    grid.scenarios.push_back(spec);
    ++index;
  }

  // Reference: uninterrupted.
  runner::SweepOptions whole;
  whole.threads = 1;
  whole.capture_traces = true;
  whole.journal_path = (base / "whole" / "sweep.journal").string();
  const runner::SweepResult whole_run = runner::run_sweep(grid, whole);
  ASSERT_TRUE(whole_run.ok()) << whole_run.first_error();
  runner::write_outputs(whole_run, (base / "whole").string());

  // "Crash" after the first scenario, then resume the full grid.
  runner::SweepGrid prefix = grid;
  prefix.scenarios.resize(1);
  runner::SweepOptions crashed = whole;
  crashed.journal_path = (base / "resumed" / "sweep.journal").string();
  ASSERT_TRUE(runner::run_sweep(prefix, crashed).ok());
  runner::SweepOptions resume = crashed;
  resume.resume = true;
  const runner::SweepResult resumed_run = runner::run_sweep(grid, resume);
  ASSERT_TRUE(resumed_run.ok()) << resumed_run.first_error();
  EXPECT_EQ(resumed_run.resumed, 1u);
  runner::write_outputs(resumed_run, (base / "resumed").string());

  const auto want = dir_contents(base / "whole");
  const auto got = dir_contents(base / "resumed");
  ASSERT_GT(want.size(), 3u);
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [name, bytes] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second, bytes) << name;
  }
  std::filesystem::remove_all(base);
}

}  // namespace
}  // namespace hpas::sim
