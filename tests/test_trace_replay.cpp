// Fuzz-style replay properties for the tracing layer.
//
// Random workload grids (counter-derived, so the "random" cases are the
// same every run and across thread counts) run twice with tracing on;
// the serialized traces must match byte for byte, diff_traces() must
// report agreement, and neither property may depend on the worker thread
// count. A deliberately perturbed seed must diverge, and the divergence
// report must name a specific event.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"
#include "trace/tracer.hpp"

namespace {

using hpas::runner::ScenarioSpec;
using hpas::runner::SweepGrid;
using hpas::runner::SweepOptions;
using hpas::runner::SweepResult;

// Small axes so a grid stays fast; the fuzz dimension is which cells a
// case picks, not how long each runs.
const char* kApps[] = {"none", "CoMD", "miniMD"};
const char* kAnomalies[] = {"none",   "cpuoccupy", "membw",
                            "memleak", "os_jitter", "iobandwidth"};

/// Deterministic "random" grid number `index`: 2-4 scenarios with
/// app/anomaly/intensity drawn from a counter-derived stream.
SweepGrid fuzz_grid(std::uint64_t index) {
  hpas::SplitMix64 stream(0xF022ED ^ (index * 0x9E3779B97F4A7C15ULL));
  SweepGrid grid;
  grid.name = "fuzz" + std::to_string(index);
  const std::size_t count = 2 + stream.next() % 3;
  for (std::size_t i = 0; i < count; ++i) {
    ScenarioSpec spec;
    spec.name = grid.name + "_s" + std::to_string(i);
    spec.app = kApps[stream.next() % (sizeof(kApps) / sizeof(kApps[0]))];
    spec.anomaly =
        kAnomalies[stream.next() % (sizeof(kAnomalies) / sizeof(kAnomalies[0]))];
    spec.intensity = 0.25 + 0.25 * static_cast<double>(stream.next() % 4);
    spec.duration_s = 4.0 + static_cast<double>(stream.next() % 4);
    spec.sample_period_s = 1.0;
    spec.run_to_completion = false;
    spec.seed = hpas::runner::derive_scenario_seed(0xF022ED, index * 100 + i);
    grid.scenarios.push_back(spec);
  }
  return grid;
}

std::vector<std::string> sweep_traces(const SweepGrid& grid, int threads) {
  SweepOptions options;
  options.threads = threads;
  options.capture_traces = true;
  const SweepResult result = hpas::runner::run_sweep(grid, options);
  EXPECT_TRUE(result.ok()) << result.first_error();
  std::vector<std::string> traces;
  for (const auto& s : result.scenarios) {
    EXPECT_FALSE(s.trace_bin.empty()) << s.spec.name;
    EXPECT_GT(s.trace_records, 0u) << s.spec.name;
    traces.push_back(s.trace_bin);
  }
  return traces;
}

hpas::trace::TraceFile parse(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return hpas::trace::read_binary(in);
}

TEST(TraceReplay, FuzzGridsReplayByteIdenticalAcrossThreadCounts) {
  for (std::uint64_t grid_index = 0; grid_index < 4; ++grid_index) {
    const SweepGrid grid = fuzz_grid(grid_index);
    const std::vector<std::string> baseline = sweep_traces(grid, 1);
    for (const int threads : {1, 2, 5}) {
      const std::vector<std::string> rerun = sweep_traces(grid, threads);
      ASSERT_EQ(rerun.size(), baseline.size());
      for (std::size_t i = 0; i < baseline.size(); ++i) {
        // Byte-identity is the strong form of the replay guarantee...
        EXPECT_EQ(rerun[i], baseline[i])
            << grid.name << " scenario " << i << " at " << threads
            << " threads";
        // ...and the checker must agree with it.
        const auto divergence =
            hpas::trace::diff_traces(parse(baseline[i]), parse(rerun[i]));
        EXPECT_FALSE(divergence.diverged) << divergence.description;
      }
    }
  }
}

TEST(TraceReplay, SeedChangeDivergesAndIsLocalized) {
  SweepGrid grid = fuzz_grid(1);
  // os_jitter consumes the scenario RNG stream, so a seed change is
  // guaranteed to show up in the trace.
  grid.scenarios.resize(1);
  grid.scenarios[0].anomaly = "os_jitter";
  grid.scenarios[0].intensity = 1.0;
  grid.scenarios[0].app = "none";

  const std::vector<std::string> original = sweep_traces(grid, 1);
  grid.scenarios[0].seed += 1;
  const std::vector<std::string> perturbed = sweep_traces(grid, 1);

  ASSERT_NE(original[0], perturbed[0]);
  const auto divergence =
      hpas::trace::diff_traces(parse(original[0]), parse(perturbed[0]));
  ASSERT_TRUE(divergence.diverged);
  // The report names one specific event, with both sides rendered.
  EXPECT_NE(divergence.description.find("event #"), std::string::npos)
      << divergence.description;
  EXPECT_NE(divergence.description.find(" vs "), std::string::npos)
      << divergence.description;
}

TEST(TraceReplay, DirectWorldCaptureMatchesItself) {
  // Replay at the World level (no runner): two identical builds of a
  // memleak scenario produce bit-equal streams.
  auto run_once = [] {
    auto world = hpas::sim::make_voltrino_world();
    hpas::trace::TraceCapture capture;
    world->attach_tracer(&capture.tracer());
    world->enable_monitoring(1.0);
    hpas::simanom::inject_memleak(*world, /*node=*/0, /*core=*/4,
                                  /*chunk_bytes=*/20.0 * 1024 * 1024,
                                  /*chunk_interval_s=*/1.0,
                                  /*duration_s=*/10.0);
    world->run_until(12.0);
    std::ostringstream out(std::ios::binary);
    hpas::trace::write_binary(out, capture.take());
    return out.str();
  };
  const std::string a = run_once();
  const std::string b = run_once();
  EXPECT_EQ(a, b);
  const auto divergence = hpas::trace::diff_traces(parse(a), parse(b));
  EXPECT_FALSE(divergence.diverged) << divergence.description;
}

TEST(TraceReplay, RingTruncatedTraceStillChecksAgainstLosslessRun) {
  // A bounded ring keeps only the newest window; seq alignment lets the
  // checker compare that window against a lossless re-run.
  auto run_with = [](std::size_t ring_capacity,
                     bool lossless) -> hpas::trace::TraceFile {
    auto world = hpas::sim::make_voltrino_world();
    hpas::trace::TraceCapture capture;
    hpas::trace::Tracer bounded(ring_capacity);
    if (lossless) {
      world->attach_tracer(&capture.tracer());
    } else {
      world->attach_tracer(&bounded);
    }
    world->enable_monitoring(1.0);
    hpas::simanom::inject_cpuoccupy(*world, 0, 0, 80.0, 8.0);
    world->run_until(10.0);
    if (lossless) return capture.take();
    hpas::trace::TraceFile file;
    file.emitted = bounded.emitted();
    file.dropped = bounded.dropped();
    file.labels = bounded.sorted_labels();
    file.records = bounded.buffer().snapshot();
    return file;
  };
  const hpas::trace::TraceFile truncated = run_with(16, false);
  const hpas::trace::TraceFile lossless = run_with(0, true);
  ASSERT_GT(truncated.dropped, 0u);
  ASSERT_EQ(truncated.records.size(), 16u);
  const auto divergence = hpas::trace::diff_traces(truncated, lossless);
  EXPECT_FALSE(divergence.diverged) << divergence.description;
}

}  // namespace
