// Reproducibility regression tests for the experiment runner.
//
// The runner's contract: a sweep's outputs (per-scenario CSVs + JSON
// summary) are byte-identical at any thread count, including 1, and
// stable across releases for a fixed grid. The cross-thread checks run
// the same grid at 1 / 2 / 5 workers; the golden-file check pins the
// exact bytes under tests/golden/ (regenerate with
// HPAS_UPDATE_GOLDEN=1 after an intentional model change).
#include "runner/grid.hpp"
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace hpas::runner {
namespace {

Json small_grid_spec() {
  Json spec = Json::object();
  spec.set("name", "determinism_grid");
  spec.set("system", "voltrino");
  spec.set("seed", 1234.0);
  spec.set("duration_s", 30.0);
  spec.set("sample_period_s", 1.0);
  Json apps = Json::array();
  for (const char* a : {"CoMD", "milc"}) apps.push_back(a);
  spec.set("apps", std::move(apps));
  Json anomalies = Json::array();
  for (const char* a : {"none", "cpuoccupy", "membw", "memleak"})
    anomalies.push_back(a);
  spec.set("anomalies", std::move(anomalies));
  Json intensities = Json::array();
  intensities.push_back(0.5);
  intensities.push_back(1.0);
  spec.set("intensities", std::move(intensities));
  spec.set("repeats", 1.0);
  return spec;
}

std::string concat_outputs(const SweepResult& result) {
  std::ostringstream out;
  out << result.summary_json().dump(2) << '\n';
  for (const auto& s : result.scenarios)
    out << "== " << s.spec.name << " ==\n" << s.metrics_csv;
  return out.str();
}

TEST(GridExpansion, IsDeterministic) {
  const auto a = expand_grid(small_grid_spec());
  const auto b = expand_grid(small_grid_spec());
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  ASSERT_EQ(a.scenarios.size(), 16u);  // 2 apps x 4 anomalies x 2 x 1
  for (std::size_t i = 0; i < a.scenarios.size(); ++i) {
    EXPECT_EQ(a.scenarios[i].name, b.scenarios[i].name);
    EXPECT_EQ(a.scenarios[i].seed, b.scenarios[i].seed);
  }
}

TEST(GridExpansion, SeedsAreCounterBasedNotSequential) {
  // Scenario i's seed depends only on (base_seed, i): dropping scenarios
  // in front of it must not change it.
  EXPECT_EQ(derive_scenario_seed(42, 7), derive_scenario_seed(42, 7));
  EXPECT_NE(derive_scenario_seed(42, 7), derive_scenario_seed(42, 8));
  EXPECT_NE(derive_scenario_seed(42, 7), derive_scenario_seed(43, 7));
}

TEST(SweepDeterminism, ByteIdenticalAcrossThreadCounts) {
  const auto grid = expand_grid(small_grid_spec());
  const auto serial = run_sweep(grid, {{.threads = 1}});
  ASSERT_TRUE(serial.ok()) << serial.first_error();
  const std::string reference = concat_outputs(serial);
  for (const int threads : {2, 5}) {
    SweepOptions options;
    options.threads = threads;
    options.queue_capacity = 4;  // submit backpressure
    const auto parallel = run_sweep(grid, options);
    ASSERT_TRUE(parallel.ok()) << parallel.first_error();
    EXPECT_EQ(concat_outputs(parallel), reference)
        << "sweep diverged at " << threads << " threads";
  }
}

TEST(SweepDeterminism, RepeatedRunsAgree) {
  const auto grid = expand_grid(small_grid_spec());
  const auto first = run_sweep(grid, {{.threads = 3}});
  const auto second = run_sweep(grid, {{.threads = 3}});
  EXPECT_EQ(concat_outputs(first), concat_outputs(second));
}

// Golden pin: the full output bytes of a fixed small grid. Catches both
// accidental nondeterminism and silent model drift. HPAS_UPDATE_GOLDEN=1
// rewrites the file (then inspect the diff and commit deliberately).
TEST(SweepDeterminism, MatchesGoldenFile) {
  const std::string path =
      std::string(HPAS_GOLDEN_DIR) + "/sweep_determinism_grid.txt";
  const auto result =
      run_sweep(expand_grid(small_grid_spec()), {{.threads = 2}});
  ASSERT_TRUE(result.ok()) << result.first_error();
  const std::string actual = concat_outputs(result);

  if (std::getenv("HPAS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file updated: " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing golden file " << path
      << " (regenerate with HPAS_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "sweep output drifted from tests/golden/sweep_determinism_grid.txt;"
         " if the model change is intentional, regenerate with"
         " HPAS_UPDATE_GOLDEN=1 and commit the diff";
}

TEST(SweepDeterminism, SummaryCarriesSeedsAndStats) {
  const auto result =
      run_sweep(expand_grid(small_grid_spec()), {{.threads = 2}});
  const Json summary = result.summary_json();
  EXPECT_EQ(summary.find("grid")->as_string(), "determinism_grid");
  EXPECT_EQ(summary.number_or("scenario_count", 0.0), 16.0);
  const auto& rows = summary.find("scenarios")->as_array();
  ASSERT_EQ(rows.size(), 16u);
  // 64-bit seeds are serialized as strings (doubles can't hold them).
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].find("seed")->as_string(),
              std::to_string(result.scenarios[i].spec.seed));
  }
  const auto& groups = summary.find("by_anomaly")->as_array();
  ASSERT_EQ(groups.size(), 4u);  // first-appearance order
  EXPECT_EQ(groups[0].find("anomaly")->as_string(), "none");
  for (const auto& g : groups) {
    EXPECT_GT(g.number_or("median_s", 0.0), 0.0);
    EXPECT_GE(g.number_or("p95_s", 0.0), g.number_or("median_s", 0.0));
  }
}

}  // namespace
}  // namespace hpas::runner
