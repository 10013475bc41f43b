// Guided-search driver battery: the frontier and the evaluation journal
// must be byte-identical at any pool thread count; a journal truncated
// mid-frame (the SIGKILL shape) plus --resume must converge to the exact
// bytes of an uninterrupted run; every frontier entry must replay to the
// same summary row; annealing must beat the random baseline on the fig08
// subspace under a pinned seed; and the minimizer must respect its keep
// threshold. Plus unit tests of the objective scoring rules and a golden
// frontier pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "runner/runner.hpp"
#include "search/driver.hpp"
#include "search/objective.hpp"
#include "search/space.hpp"

namespace {

using hpas::Json;
using hpas::search::DegradationPerIntensityObjective;
using hpas::search::EvadeDiagnosisObjective;
using hpas::search::FrontierEntry;
using hpas::search::Measurement;
using hpas::search::run_search;
using hpas::search::ScenarioSpace;
using hpas::search::SchedulerWorstCaseObjective;
using hpas::search::SearchOptions;
using hpas::search::SearchResult;
using hpas::runner::summary_row_json;

// A cheap space for the byte-level tests: short windows, one app, three
// anomalies -- each evaluation is a few milliseconds of simulation.
const char* kQuickSpaceText = R"({
  "name": "quick_search",
  "system": "voltrino",
  "seed": 7,
  "app": "CoMD",
  "duration_s": 10,
  "sample_period_s": 1.0,
  "run_to_completion": false,
  "dimensions": [
    {"name": "anomaly", "type": "categorical",
     "values": ["cpuoccupy", "cachecopy", "membw"]},
    {"name": "intensity", "type": "continuous", "lo": 0.25, "hi": 2.0}
  ]
})";

// The fig08 subspace from examples/spaces/fig08_search.json: the
// anneal-vs-random acceptance test and the golden frontier run here.
const char* kFig08SpaceText = R"({
  "name": "fig08_search",
  "system": "voltrino",
  "seed": 42,
  "app": "CoMD",
  "duration_s": 20,
  "sample_period_s": 1.0,
  "run_to_completion": false,
  "dimensions": [
    {"name": "app", "type": "categorical", "values": ["CoMD", "milc"]},
    {"name": "anomaly", "type": "categorical",
     "values": ["cpuoccupy", "cachecopy", "membw"]},
    {"name": "intensity", "type": "continuous", "lo": 0.25, "hi": 2.0},
    {"name": "ranks_per_node", "type": "integer", "lo": 1, "hi": 4}
  ]
})";

ScenarioSpace quick_space() {
  return ScenarioSpace::from_json(Json::parse(kQuickSpaceText));
}

ScenarioSpace fig08_space() {
  return ScenarioSpace::from_json(Json::parse(kFig08SpaceText));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

class SearchDriverTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("hpas-search-driver-" + std::string(::testing::UnitTest::
                                                     GetInstance()
                                                         ->current_test_info()
                                                         ->name()));
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::string out(const std::string& leaf) const {
    return (base_ / leaf).string();
  }

  std::filesystem::path base_;
};

SearchOptions quick_options() {
  SearchOptions options;
  options.strategy = "anneal";
  options.budget = 12;
  options.batch = 4;
  options.frontier_size = 4;
  options.threads = 1;
  return options;
}

// The frontier document with a fixed replay path: the only
// path-dependent field pinned, everything else must be bit-stable.
std::string frontier_text(const SearchResult& result,
                          const ScenarioSpace& space) {
  return result.frontier_json(space, "frontier.json").dump(2);
}

TEST_F(SearchDriverTest, ThreadCountDoesNotChangeBytes) {
  const ScenarioSpace space = quick_space();
  std::string reference_frontier;
  std::string reference_journal;
  for (const int threads : {1, 2, 5}) {
    SearchOptions options = quick_options();
    options.threads = threads;
    const std::string dir =
        out(std::string("t").append(std::to_string(threads)));
    options.journal_path = dir + "/search.journal";
    std::filesystem::create_directories(dir);
    const SearchResult result = run_search(space, options);
    EXPECT_GT(result.executed, 0u);
    const std::string frontier = frontier_text(result, space);
    const std::string journal = read_file(options.journal_path);
    if (threads == 1) {
      reference_frontier = frontier;
      reference_journal = journal;
      ASSERT_FALSE(result.frontier.empty());
    } else {
      EXPECT_EQ(frontier, reference_frontier)
          << "frontier JSON depends on thread count (threads=" << threads
          << ")";
      EXPECT_EQ(journal, reference_journal)
          << "evaluation journal depends on thread count (threads="
          << threads << ")";
    }
  }
}

TEST_F(SearchDriverTest, StrategiesAreSeedDeterministic) {
  const ScenarioSpace space = quick_space();
  for (const char* strategy : {"random", "anneal", "bandit"}) {
    SearchOptions options = quick_options();
    options.strategy = strategy;
    const std::string a = frontier_text(run_search(space, options), space);
    const std::string b = frontier_text(run_search(space, options), space);
    EXPECT_EQ(a, b) << "strategy '" << strategy
                    << "' is not reproducible under a fixed seed";
  }
}

TEST_F(SearchDriverTest, ResumeAfterTruncationIsByteIdentical) {
  const ScenarioSpace space = quick_space();

  // Reference: one uninterrupted journaled run.
  SearchOptions full = quick_options();
  full.threads = 2;
  full.journal_path = out("full") + "/search.journal";
  std::filesystem::create_directories(out("full"));
  const SearchResult uninterrupted = run_search(space, full);
  const std::string want_frontier = frontier_text(uninterrupted, space);
  const std::string want_journal = read_file(full.journal_path);

  // "Crash": truncate a copy of the journal to ~50% -- with high
  // probability mid-frame, exactly the torn tail a SIGKILL leaves.
  std::filesystem::create_directories(out("killed"));
  const std::string killed_journal = out("killed") + "/search.journal";
  {
    const std::string bytes = want_journal;
    std::ofstream cut(killed_journal, std::ios::binary | std::ios::trunc);
    cut.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }

  // Resume against the torn journal: cached evaluations must be reused,
  // the missing suffix re-run, and both artifacts must converge to the
  // uninterrupted bytes.
  SearchOptions resume = full;
  resume.journal_path = killed_journal;
  resume.resume = true;
  const SearchResult resumed = run_search(space, resume);
  EXPECT_GT(resumed.cached, 0u) << "resume did not reuse the journal";
  EXPECT_LT(resumed.executed, uninterrupted.executed)
      << "resume re-ran everything";
  EXPECT_EQ(frontier_text(resumed, space), want_frontier);
  EXPECT_EQ(read_file(killed_journal), want_journal);

  // Resuming a *complete* journal runs nothing at all.
  const SearchResult warm = run_search(space, resume);
  EXPECT_EQ(warm.executed, 0u);
  EXPECT_GT(warm.cached, 0u);
  EXPECT_EQ(frontier_text(warm, space), want_frontier);
  EXPECT_EQ(read_file(killed_journal), want_journal);
}

TEST_F(SearchDriverTest, FrontierEntriesReplayByteForByte) {
  const ScenarioSpace space = quick_space();
  SearchOptions options = quick_options();
  options.threads = 2;
  const SearchResult result = run_search(space, options);
  ASSERT_FALSE(result.frontier.empty());
  for (const FrontierEntry& entry : result.frontier) {
    const auto rerun = hpas::runner::run_scenario(entry.spec);
    ASSERT_EQ(rerun.status, hpas::runner::ScenarioStatus::kDone);
    const std::string recorded =
        summary_row_json(entry.spec, entry.app_elapsed_s,
                         entry.app_iterations)
            .dump(2);
    const std::string replayed =
        summary_row_json(entry.spec, rerun.app_elapsed_s,
                         static_cast<std::uint64_t>(rerun.app_iterations))
            .dump(2);
    EXPECT_EQ(replayed, recorded)
        << "scenario " << entry.spec.name << " did not replay exactly";
  }
}

TEST_F(SearchDriverTest, AnnealingBeatsRandomOnFig08Subspace) {
  ScenarioSpace space = fig08_space();
  space.set_base_seed(1);  // pinned: the comparison below is deterministic
  SearchOptions anneal;
  anneal.strategy = "anneal";
  anneal.budget = 64;
  anneal.batch = 8;
  anneal.frontier_size = 4;
  anneal.threads = 2;
  SearchOptions random = anneal;
  random.strategy = "random";

  const SearchResult guided = run_search(space, anneal);
  const SearchResult baseline = run_search(space, random);
  ASSERT_FALSE(guided.frontier.empty());
  ASSERT_FALSE(baseline.frontier.empty());
  // Deterministic under the pinned space seed (42): the guided strategy
  // must find an optimum at least as degrading as uniform sampling's.
  EXPECT_GE(guided.frontier.front().objective,
            baseline.frontier.front().objective);
  EXPECT_GT(guided.frontier.front().objective, 0.0);
}

TEST_F(SearchDriverTest, MinimizerRespectsKeepThreshold) {
  const ScenarioSpace space = quick_space();
  SearchOptions options = quick_options();
  options.budget = 16;
  options.minimize = true;
  options.minimize_keep = 0.9;
  const SearchResult result = run_search(space, options);
  ASSERT_FALSE(result.frontier.empty());
  ASSERT_GT(result.frontier.front().objective, 0.0);
  ASSERT_TRUE(result.has_minimized);
  EXPECT_GE(result.minimized.objective,
            options.minimize_keep * result.frontier.front().objective);
  // The minimizer only ever shrinks numeric coordinates.
  const auto& best = result.frontier.front().point.coords;
  const auto& min = result.minimized.point.coords;
  ASSERT_EQ(best.size(), min.size());
  EXPECT_EQ(min[0], best[0]);  // categorical anomaly untouched
  EXPECT_LE(min[1], best[1]);  // intensity only moves down
}

// --- objective scoring units -------------------------------------------

hpas::runner::ScenarioSpec spec_with(const std::string& anomaly,
                                     double intensity) {
  hpas::runner::ScenarioSpec spec;
  spec.name = "unit";
  spec.anomaly = anomaly;
  spec.intensity = intensity;
  return spec;
}

TEST_F(SearchDriverTest, DegradationScoresThroughputRatio) {
  const DegradationPerIntensityObjective objective;
  const Measurement run{10.0, 500};
  const Measurement baseline{10.0, 1000};
  // Throughput halved at intensity 1 -> slowdown 1.0.
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("cpuoccupy", 1.0), run, baseline, 0.0), 1.0);
  // Same slowdown at double the intensity scores half.
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("cpuoccupy", 2.0), run, baseline, 0.0), 0.5);
  // Anomaly-free points ARE baselines: exactly 0.
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("none", 1.0), run, baseline, 0.0), 0.0);
  // Missing baseline: 0, never a spurious reward.
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("cpuoccupy", 1.0), run, Measurement{}, 0.0),
      0.0);
}

TEST_F(SearchDriverTest, EvadeScoreIsInverseTrueClassConfidence) {
  // A tiny deterministic forest: 2 features, classes {none, cpuoccupy}.
  hpas::ml::Dataset data;
  data.class_names = {"none", "cpuoccupy"};
  for (int i = 0; i < 8; ++i) {
    data.add({0.0 + 0.01 * i, 1.0}, 0);
    data.add({1.0 + 0.01 * i, 0.0}, 1);
  }
  hpas::ml::ForestOptions forest_options;
  forest_options.num_trees = 5;
  auto forest = std::make_shared<hpas::ml::RandomForest>(forest_options);
  forest->fit(data);

  const EvadeDiagnosisObjective objective(forest, data.class_names);
  const Measurement none{};
  // score = 1 - P(true class): confident classifier -> nothing gained.
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("cpuoccupy", 1.0), none, none, 0.25), 0.75);
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("cpuoccupy", 1.0), none, none, 1.0), 0.0);
  // Nothing to evade without an anomaly, or for an untrained class.
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("none", 1.0), none, none, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("memleak", 1.0), none, none, 0.1), 0.0);
}

TEST_F(SearchDriverTest, EvadeObjectiveTrainsIdenticallyAtAnyThreadCount) {
  // make_objective("evade_diagnosis") trains its forest on a dataset the
  // factory builds on `threads` workers. The rows, the forest and every
  // probe must not depend on that thread count.
  const auto serial = hpas::search::make_objective("evade_diagnosis",
                                                   {.threads = 1});
  const auto parallel = hpas::search::make_objective("evade_diagnosis",
                                                     {.threads = 4});
  ASSERT_TRUE(serial->needs_probe());
  hpas::runner::ScenarioSpec spec;
  spec.name = "evade_probe";
  spec.app = "CoMD";
  spec.anomaly = "cpuoccupy";
  spec.intensity = 0.8;
  spec.duration_s = 10.0;
  spec.seed = 11;
  double probes[2] = {-1.0, -1.0};
  const hpas::search::Objective* objectives[2] = {serial.get(),
                                                  parallel.get()};
  for (std::size_t k = 0; k < 2; ++k) {
    const hpas::runner::ScenarioResult run = hpas::runner::run_scenario(
        spec, {.inspect = [&](hpas::sim::World& world) {
          probes[k] = objectives[k]->probe(world, spec);
        }});
    ASSERT_EQ(run.status, hpas::runner::ScenarioStatus::kDone);
  }
  EXPECT_GE(probes[0], 0.0);
  EXPECT_LE(probes[0], 1.0);
  EXPECT_EQ(std::memcmp(&probes[0], &probes[1], sizeof(double)), 0)
      << probes[0] << " vs " << probes[1];
}

TEST_F(SearchDriverTest, WbasScoreIsProbeGatedOnAnomaly) {
  const SchedulerWorstCaseObjective objective;
  const Measurement none{};
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("cpuoccupy", 1.0), none, none, 0.8), 0.8);
  EXPECT_DOUBLE_EQ(
      objective.score(spec_with("none", 1.0), none, none, 0.8), 0.0);
}

TEST_F(SearchDriverTest, InjectedObjectiveDrivesTheSearch) {
  // An objective injected through the options (the test seam the evade /
  // wbas CLI paths use): reward high intensity directly.
  class IntensityObjective final : public hpas::search::Objective {
   public:
    const char* name() const override { return "intensity"; }
    double score(const hpas::runner::ScenarioSpec& spec, const Measurement&,
                 const Measurement&, double) const override {
      return spec.intensity;
    }
  };
  const ScenarioSpace space = quick_space();
  SearchOptions options = quick_options();
  options.budget = 24;
  options.objective_impl = std::make_shared<IntensityObjective>();
  const SearchResult result = run_search(space, options);
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_EQ(result.objective, "intensity");
  // Annealing on a monotone objective must get close to the upper bound.
  EXPECT_GT(result.frontier.front().objective, 1.5);
  EXPECT_DOUBLE_EQ(result.frontier.front().objective,
                   result.frontier.front().spec.intensity);
}

// --- golden frontier ----------------------------------------------------

// Byte-level pin of a small annealing run on the fig08 subspace. Refresh
// intentionally with: HPAS_UPDATE_GOLDEN=1 ./test_search_driver
TEST_F(SearchDriverTest, GoldenFrontierFig08) {
  const ScenarioSpace space = fig08_space();
  SearchOptions options;
  options.strategy = "anneal";
  options.budget = 32;
  options.batch = 8;
  options.frontier_size = 4;
  options.threads = 2;
  const SearchResult result = run_search(space, options);
  const std::string actual = frontier_text(result, space);

  const std::string golden_path =
      std::string(HPAS_GOLDEN_DIR) + "/search_frontier_fig08.json";
  if (std::getenv("HPAS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.is_open()) << "cannot write " << golden_path;
    file << actual;
    GTEST_SKIP() << "golden frontier updated: " << golden_path;
  }
  std::ifstream file(golden_path, std::ios::binary);
  ASSERT_TRUE(file.is_open())
      << "missing golden file " << golden_path
      << " (generate with HPAS_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "search frontier drifted from the golden pin; if the change is "
         "intentional, refresh with HPAS_UPDATE_GOLDEN=1";
}

}  // namespace
