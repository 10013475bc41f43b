// google-benchmark microbenchmarks of HPAS's hot kernels: the native
// generators' inner loops and the simulator/ML primitives the figure
// benches lean on. These quantify the *generator-side* costs (how fast
// can cachecopy evict, how fast does membw stream) on the build host.
#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>
#include <vector>

#include <memory>

#include "anomalies/cache_topology.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "lb/balancers.hpp"
#include "ml/decision_tree.hpp"
#include "runner/journal.hpp"
#include "sim/engine/simulator.hpp"
#include "sim/maxmin.hpp"
#include "sim/network.hpp"

namespace {

void BM_RngFillBytes(benchmark::State& state) {
  hpas::Rng rng(42);
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    rng.fill_bytes(buf.data(), buf.size());
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RngFillBytes)->Arg(4096)->Arg(1 << 20);

/// CRC-32 of one dataset row frame (884 B) and of a large buffer (80 KiB).
void BM_Crc32(benchmark::State& state) {
  hpas::Rng rng(7);
  std::vector<unsigned char> buf(static_cast<std::size_t>(state.range(0)));
  rng.fill_bytes(buf.data(), buf.size());
  for (auto _ : state)
    benchmark::DoNotOptimize(hpas::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(884)->Arg(80 << 10);

/// The cachecopy inner loop at each cache level's working set.
void BM_CacheCopyKernel(benchmark::State& state) {
  const auto bytes = static_cast<std::size_t>(state.range(0));
  std::vector<unsigned char> block(2 * bytes, 0x5a);
  unsigned char* a = block.data();
  unsigned char* b = block.data() + bytes;
  for (auto _ : state) {
    std::memcpy(b, a, bytes);
    benchmark::DoNotOptimize(b);
    std::swap(a, b);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CacheCopyKernel)
    ->Arg(16 * 1024)      // half L1
    ->Arg(128 * 1024)     // half L2
    ->Arg(8 * 1024 * 1024);  // a slice of L3

void BM_MaxMinAllocate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> demands(n);
  hpas::Rng rng(7);
  for (auto& d : demands) d = rng.uniform(0.1, 10.0);
  for (auto _ : state) {
    auto alloc = hpas::sim::max_min_allocate(5.0 * static_cast<double>(n) / 4,
                                             demands);
    benchmark::DoNotOptimize(alloc.data());
  }
}
BENCHMARK(BM_MaxMinAllocate)->Arg(8)->Arg(64)->Arg(512);

void BM_SimulatorEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    hpas::sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.schedule_in(static_cast<double>(i % 97) * 1e-3,
                      [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SimulatorEventChurn)->Arg(1000)->Arg(10000);

void BM_DecisionTreeFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  hpas::Rng rng(11);
  hpas::ml::Dataset data;
  data.class_names = {"a", "b", "c"};
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(24);
    for (auto& v : x) v = rng.uniform01();
    const int y = x[0] > 0.66 ? 2 : (x[1] > 0.5 ? 1 : 0);
    data.add(std::move(x), y);
  }
  for (auto _ : state) {
    hpas::ml::DecisionTree tree;
    tree.fit(data);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(200)->Arg(1000);

void BM_NetworkFlowRates(benchmark::State& state) {
  using namespace hpas::sim;
  Network net(Topology::two_tier(4, 8, 10e9, 18e9));
  const auto flows_n = static_cast<std::size_t>(state.range(0));
  std::vector<std::unique_ptr<Task>> tasks;
  std::vector<Flow> flows;
  hpas::Rng rng(5);
  for (std::size_t i = 0; i < flows_n; ++i) {
    const int src = static_cast<int>(rng.next_below(32));
    const int dst = static_cast<int>(rng.next_below(32));
    auto task = std::make_unique<Task>(
        "f", src, 0, TaskProfile{},
        [](Task&) { return Phase::done(); });
    task->set_phase(Phase::message(dst, 1e9));
    flows.push_back({task.get(), src, dst, 0.0});
    tasks.push_back(std::move(task));
  }
  for (auto _ : state) {
    net.compute_rates(flows);
    benchmark::DoNotOptimize(flows.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_NetworkFlowRates)->Arg(4)->Arg(32)->Arg(128);

void BM_RefineAssignment(benchmark::State& state) {
  using namespace hpas::lb;
  const auto n = static_cast<std::size_t>(state.range(0));
  hpas::Rng rng(9);
  ObjectLoads objects(n);
  for (auto& load : objects) load = rng.uniform(0.5, 1.5);
  CoreCapacities caps(32, 1.0);
  caps[0] = 0.4;
  caps[7] = 0.6;
  std::vector<int> initial(n);
  for (auto& core : initial) core = static_cast<int>(rng.next_below(32));
  for (auto _ : state) {
    auto result = refine_assignment(initial, objects, caps);
    benchmark::DoNotOptimize(result.migrations);
  }
}
BENCHMARK(BM_RefineAssignment)->Arg(128)->Arg(1024);

void BM_SummaryStats(benchmark::State& state) {
  hpas::Rng rng(3);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& v : xs) v = rng.normal();
  for (auto _ : state) {
    const auto s = hpas::summarize(xs);
    benchmark::DoNotOptimize(s.mean);
  }
}
BENCHMARK(BM_SummaryStats)->Arg(60)->Arg(600);

}  // namespace

/// The journal/cache key of one spec: the dataset planner and every
/// server submit hash each scenario once.
void BM_ScenarioKeyHash(benchmark::State& state) {
  hpas::runner::ScenarioSpec spec;
  spec.name = "e0123456789abcdef";
  spec.app = "CoMD";
  spec.anomaly = "membw";
  spec.seed = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(spec);
    benchmark::DoNotOptimize(hpas::runner::scenario_key_hash(spec));
  }
}
BENCHMARK(BM_ScenarioKeyHash);

BENCHMARK_MAIN();
