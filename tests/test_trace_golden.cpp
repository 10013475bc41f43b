// Golden-trace differential regression (bench/fig05's memory-leak
// timeline, shortened).
//
// Pins the byte-stable text export of one memleak scenario's full trace
// under tests/golden/; regenerate deliberately with HPAS_UPDATE_GOLDEN=1
// after an intentional model change. The perturbation test then shows
// what the pin buys: changing one injector knob is localized by
// trace_diff to the exact first divergent event, not just "some bytes
// changed".
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"
#include "trace/tracer.hpp"

namespace {

/// The fig05 scenario, shortened to keep the golden file small: a
/// 20 MB/s memory leak on node 0 for 20 simulated seconds, observed for
/// 30 (the leak's release at expiry is part of the pinned stream).
hpas::trace::TraceFile run_memleak_scenario(double chunk_interval_s) {
  auto world = hpas::sim::make_voltrino_world();
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(1.0);
  hpas::simanom::inject_memleak(*world, /*node=*/0, /*core=*/0,
                                /*chunk_bytes=*/20.0 * 1024 * 1024,
                                chunk_interval_s,
                                /*duration_s=*/20.0);
  world->run_until(30.0);
  return capture.take();
}

std::string text_form(const hpas::trace::TraceFile& file) {
  std::ostringstream out;
  hpas::trace::write_text(out, file);
  return out.str();
}

TEST(TraceGolden, Fig05MemleakTraceMatchesGoldenFile) {
  const std::string path =
      std::string(HPAS_GOLDEN_DIR) + "/fig05_memleak_trace.txt";
  const std::string actual = text_form(run_memleak_scenario(1.0));

  if (std::getenv("HPAS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden trace updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (regenerate with HPAS_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "the memleak trace drifted from tests/golden/fig05_memleak_trace"
         ".txt; if the model change is intentional, regenerate with"
         " HPAS_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(TraceGolden, CountersCoverEveryInstrumentedSubsystem) {
  // Per-kind record counts: the memleak scenario must exercise the
  // engine, task, rate, memory, anomaly and monitoring channels -- a
  // count dropping to zero means a subsystem silently stopped emitting.
  const hpas::trace::TraceFile file = run_memleak_scenario(1.0);
  std::array<std::uint64_t, hpas::trace::kNumRecordKinds> by_kind{};
  std::uint64_t total = 0;
  for (const hpas::trace::TraceRecord& r : file.records) {
    const auto kind = static_cast<std::size_t>(r.kind);
    if (kind < by_kind.size()) {
      ++by_kind[kind];
      ++total;
    }
  }
  // Every record carries a known kind.
  EXPECT_EQ(total, file.records.size());
  EXPECT_EQ(file.dropped, 0u);
  using hpas::trace::RecordKind;
  // (kTaskKill is absent by design: memleak expires through its own
  // phase controller rather than being killed.)
  for (const RecordKind kind :
       {RecordKind::kEventScheduled, RecordKind::kEventFired,
        RecordKind::kTaskSpawn, RecordKind::kPhaseTransition,
        RecordKind::kRateRecompute, RecordKind::kNodeRates,
        RecordKind::kTaskRate, RecordKind::kMemoryAlloc,
        RecordKind::kAnomalyStart, RecordKind::kAnomalyStop,
        RecordKind::kSample}) {
    EXPECT_GT(by_kind[static_cast<std::size_t>(kind)], 0u)
        << hpas::trace::record_kind_name(kind);
  }
}

TEST(TraceGolden, ReplayIsBitIdentical) {
  EXPECT_EQ(text_form(run_memleak_scenario(1.0)),
            text_form(run_memleak_scenario(1.0)));
}

TEST(TraceGolden, PerturbationIsLocalizedToFirstDivergentEvent) {
  const hpas::trace::TraceFile recorded = run_memleak_scenario(1.0);
  const hpas::trace::TraceFile perturbed = run_memleak_scenario(1.25);

  const auto divergence = hpas::trace::diff_traces(recorded, perturbed);
  ASSERT_TRUE(divergence.diverged);

  // Every record before the reported seq agrees: the perturbation really
  // is localized, not merely detected.
  ASSERT_LT(divergence.seq, recorded.records.size());
  for (std::uint64_t i = 0; i < divergence.seq; ++i) {
    EXPECT_TRUE(hpas::trace::bitwise_equal(
        recorded.records[static_cast<std::size_t>(i)],
        perturbed.records[static_cast<std::size_t>(i)]))
        << "record " << i << " differs before the reported divergence";
  }

  // The report names the exact event and renders both sides; the leak
  // interval shows up as the divergent quantity (1 vs 1.25).
  EXPECT_NE(divergence.description.find("event #"), std::string::npos)
      << divergence.description;
  EXPECT_NE(divergence.description.find("1.25"), std::string::npos)
      << divergence.description;
}

}  // namespace
