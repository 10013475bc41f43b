// Sweep output writing: every file lands atomically (temp + rename), so
// a failure mid-write never leaves a partially written or stray .tmp
// file behind -- the bug this pins down was `hpas sweep` leaving partial
// CSVs when cancel-on-first-failure interrupted a run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "runner/grid.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "sim/world.hpp"

namespace fs = std::filesystem;

namespace {

hpas::runner::SweepGrid tiny_grid(bool with_failure = false) {
  hpas::runner::SweepGrid grid;
  grid.name = "outputs_grid";
  for (int i = 0; i < 2; ++i) {
    hpas::runner::ScenarioSpec spec;
    spec.name = "scenario" + std::to_string(i);
    spec.anomaly = i == 0 ? "memleak" : "none";
    spec.duration_s = 3.0;
    spec.sample_period_s = 1.0;
    spec.seed = hpas::runner::derive_scenario_seed(7, static_cast<std::uint64_t>(i));
    grid.scenarios.push_back(spec);
  }
  if (with_failure) {
    // app_nodes beyond the preset's node count makes run_scenario throw.
    grid.scenarios[1].app = "CoMD";
    grid.scenarios[1].app_nodes = 1000;
  }
  return grid;
}

std::set<std::string> list_dir(const fs::path& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir))
    names.insert(entry.path().filename().string());
  return names;
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Every file in `dir` but the journal (it carries wall times), name ->
/// bytes.
std::map<std::string, std::string> outputs_of(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const std::string& name : list_dir(dir))
    if (name != "sweep.journal") files[name] = read_bytes(dir / name);
  return files;
}

class SweepOutputsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("hpas_sweep_outputs_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

TEST_F(SweepOutputsTest, WritesAllFilesAndLeavesNoTemporaries) {
  const auto result = hpas::runner::run_sweep(tiny_grid(), {{.threads = 2}});
  ASSERT_TRUE(result.ok()) << result.first_error();
  hpas::runner::write_outputs(result, dir_.string());

  const auto names = list_dir(dir_);
  EXPECT_TRUE(names.count("scenario0.csv"));
  EXPECT_TRUE(names.count("scenario1.csv"));
  EXPECT_TRUE(names.count("summary.json"));
  for (const std::string& name : names)
    EXPECT_TRUE(name.find(".tmp") == std::string::npos)
        << "stray temporary left behind: " << name;
}

TEST_F(SweepOutputsTest, CapturedTracesLandNextToTheCsvs) {
  hpas::runner::SweepOptions options;  // one thread
  options.capture_traces = true;
  const auto result = hpas::runner::run_sweep(tiny_grid(), options);
  ASSERT_TRUE(result.ok()) << result.first_error();
  hpas::runner::write_outputs(result, dir_.string());
  const auto names = list_dir(dir_);
  EXPECT_TRUE(names.count("scenario0.trace.bin"));
  EXPECT_TRUE(names.count("scenario1.trace.bin"));
  EXPECT_GT(fs::file_size(dir_ / "scenario0.trace.bin"), 0u);
}

TEST_F(SweepOutputsTest, FailedScenariosProduceNoPartialFiles) {
  // Scenario 1 throws inside run_scenario and cancel-on-first-failure may
  // skip scenario 0 entirely; write_outputs must emit files only for
  // scenarios that completed, never a partial or temporary one.
  const auto result = hpas::runner::run_sweep(tiny_grid(/*with_failure=*/true),
                                              {{.threads = 1}});
  ASSERT_FALSE(result.ok());
  hpas::runner::write_outputs(result, dir_.string());
  const auto names = list_dir(dir_);
  EXPECT_FALSE(names.count("scenario1.csv"));
  EXPECT_TRUE(names.count("summary.json"));
  for (const auto& s : result.scenarios) {
    const bool completed = s.ran && s.error.empty();
    EXPECT_EQ(names.count(s.spec.name + ".csv") == 1, completed)
        << s.spec.name;
  }
  for (const std::string& name : names)
    EXPECT_TRUE(name.find(".tmp") == std::string::npos)
        << "stray temporary left behind: " << name;
}

TEST_F(SweepOutputsTest, InjectorKeysAreOptionalInSummaryRows) {
  // Schema round-trip: summary rows carry injector_fail_at_s /
  // injector_fail_tasks ONLY for degraded-injector scenarios, so clean
  // sweeps stay byte-identical to summaries recorded before the fields
  // existed. Search frontier replay relies on exactly this row shape.
  auto grid = tiny_grid();
  grid.scenarios[0].app = "CoMD";
  grid.scenarios[0].anomaly = "cpuoccupy";
  grid.scenarios[0].injector_fail_at_s = 1.5;
  grid.scenarios[0].injector_fail_tasks = 2;
  const auto result = hpas::runner::run_sweep(grid, {{.threads = 1}});
  ASSERT_TRUE(result.ok()) << result.first_error();

  const hpas::Json summary =
      hpas::Json::parse(result.summary_json().dump(2));
  const hpas::Json* rows = summary.find("scenarios");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->as_array().size(), 2u);

  const hpas::Json& degraded = rows->as_array()[0];
  ASSERT_NE(degraded.find("injector_fail_at_s"), nullptr);
  ASSERT_NE(degraded.find("injector_fail_tasks"), nullptr);
  EXPECT_DOUBLE_EQ(degraded.find("injector_fail_at_s")->as_number(), 1.5);
  EXPECT_DOUBLE_EQ(degraded.find("injector_fail_tasks")->as_number(), 2.0);

  const hpas::Json& clean = rows->as_array()[1];
  EXPECT_EQ(clean.find("injector_fail_at_s"), nullptr)
      << "clean scenarios must not grow injector keys";
  EXPECT_EQ(clean.find("injector_fail_tasks"), nullptr);
}

TEST_F(SweepOutputsTest, ObstructedTargetThrowsAndRemovesTemporary) {
  const auto result = hpas::runner::run_sweep(tiny_grid(), {{.threads = 1}});
  ASSERT_TRUE(result.ok()) << result.first_error();

  // A directory squatting on summary.json's path makes the final rename
  // fail; the write must surface SystemError and clean up its temporary
  // rather than leaving summary.json.tmp (or a half-written target).
  fs::create_directories(dir_ / "summary.json" / "squatter");
  EXPECT_THROW(hpas::runner::write_outputs(result, dir_.string()),
               hpas::SystemError);
  EXPECT_FALSE(fs::exists(dir_ / "summary.json.tmp"))
      << "temporary not cleaned up after a failed rename";
  // The CSVs written before the failure are complete files, not stubs.
  EXPECT_TRUE(fs::exists(dir_ / "scenario0.csv"));
  EXPECT_GT(fs::file_size(dir_ / "scenario0.csv"), 0u);
}

/// Neither output string owns a heap buffer: an empty string that kept
/// its capacity would still hold the memory.
bool holds_no_bytes(const hpas::runner::ScenarioResult& s) {
  const std::size_t inline_capacity = std::string().capacity();
  return s.metrics_csv.empty() && s.trace_bin.empty() &&
         s.metrics_csv.capacity() == inline_capacity &&
         s.trace_bin.capacity() == inline_capacity;
}

hpas::runner::SweepOptions journaled(const fs::path& dir, bool resume) {
  hpas::runner::SweepOptions options;
  options.threads = 2;
  options.capture_traces = true;
  options.journal_path = (dir / "sweep.journal").string();
  options.resume = resume;
  return options;
}

TEST_F(SweepOutputsTest, JournaledSweepPublishesEachOutputOnceAndHoldsNone) {
  const auto result =
      hpas::runner::run_sweep(tiny_grid(), journaled(dir_, false));
  ASSERT_TRUE(result.ok()) << result.first_error();
  EXPECT_EQ(fs::path(result.output_dir), dir_);
  for (const auto& s : result.scenarios) {
    EXPECT_TRUE(holds_no_bytes(s)) << s.spec.name;
    EXPECT_GT(s.trace_records, 0u) << s.spec.name;
  }
  // What the slots let go of is on disk, digesting to the journaled CRCs.
  const auto journal =
      hpas::runner::read_journal((dir_ / "sweep.journal").string());
  ASSERT_EQ(journal.records.size(), 2u);
  for (const auto& rec : journal.records) {
    EXPECT_EQ(hpas::crc32(read_bytes(dir_ / rec.output)), rec.csv_crc)
        << rec.name;
    EXPECT_EQ(hpas::crc32(read_bytes(dir_ / (rec.name + ".trace.bin"))),
              rec.trace_crc)
        << rec.name;
  }
}

TEST_F(SweepOutputsTest, JournaledOutputsMatchAnInMemorySweepByteForByte) {
  const fs::path memory = dir_ / "memory";
  hpas::runner::SweepOptions in_memory = journaled(memory, false);
  in_memory.journal_path.clear();
  const auto held = hpas::runner::run_sweep(tiny_grid(), in_memory);
  ASSERT_TRUE(held.ok()) << held.first_error();
  EXPECT_TRUE(held.output_dir.empty());
  hpas::runner::write_outputs(held, memory.string());

  const fs::path published = dir_ / "journaled";
  const auto result =
      hpas::runner::run_sweep(tiny_grid(), journaled(published, false));
  ASSERT_TRUE(result.ok()) << result.first_error();
  hpas::runner::write_outputs(result, published.string());

  const auto want = outputs_of(memory);
  EXPECT_EQ(want.size(), 5u);  // two CSVs, two traces, summary.json
  EXPECT_EQ(outputs_of(published), want);

  // A resume restores both scenarios from disk and holds none of their
  // bytes either; the summary it writes is the same.
  const auto resumed =
      hpas::runner::run_sweep(tiny_grid(), journaled(published, true));
  ASSERT_TRUE(resumed.ok()) << resumed.first_error();
  EXPECT_EQ(resumed.resumed, 2u);
  for (const auto& s : resumed.scenarios)
    EXPECT_TRUE(holds_no_bytes(s)) << s.spec.name;
  hpas::runner::write_outputs(resumed, published.string());
  EXPECT_EQ(outputs_of(published), want);
}

TEST_F(SweepOutputsTest, JournaledResultRefusesAnotherDirectory) {
  const fs::path published = dir_ / "journaled";
  const auto result =
      hpas::runner::run_sweep(tiny_grid(), journaled(published, false));
  ASSERT_TRUE(result.ok()) << result.first_error();
  EXPECT_THROW(hpas::runner::write_outputs(result, (dir_ / "other").string()),
               hpas::ConfigError);
  EXPECT_FALSE(fs::exists(dir_ / "other"));
  // The same directory under another spelling is accepted.
  EXPECT_NO_THROW(
      hpas::runner::write_outputs(result, (published / ".").string()));
  EXPECT_TRUE(fs::exists(published / "summary.json"));
}

hpas::runner::ScenarioSpec valid_spec() {
  hpas::runner::ScenarioSpec spec;
  spec.name = "valid";
  spec.app = "CoMD";
  spec.duration_s = 3.0;
  return spec;
}

TEST(ValidateSpec, RunScenarioRejectsAnUnknownSystem) {
  hpas::runner::ScenarioSpec spec = valid_spec();
  spec.system = "bogus";  // must not fall back to a default preset
  EXPECT_THROW(hpas::runner::run_scenario(spec), hpas::ConfigError);
}

TEST(ValidateSpec, RunScenarioRejectsAnAppOnZeroNodes) {
  hpas::runner::ScenarioSpec spec = valid_spec();
  spec.app_nodes = 0;  // the app's node stride divides by app_nodes
  EXPECT_THROW(hpas::runner::run_scenario(spec), hpas::ConfigError);
}

TEST(ValidateSpec, PlacementFieldsAreBothPolicyOrBothExplicit) {
  hpas::runner::ScenarioSpec spec = valid_spec();
  EXPECT_NO_THROW(hpas::runner::validate_spec(spec));
  spec.anomaly_node = 2;
  spec.anomaly_core = 5;
  EXPECT_NO_THROW(hpas::runner::validate_spec(spec));
  spec.anomaly_core = -1;
  EXPECT_THROW(hpas::runner::validate_spec(spec), hpas::ConfigError);
  spec.anomaly_node = -1;
  spec.anomaly_core = 0;
  EXPECT_THROW(hpas::runner::validate_spec(spec), hpas::ConfigError);
}

TEST(ValidateSpec, WireAndGridSpecsAreValidatedOnEntry) {
  hpas::runner::ScenarioSpec spec = valid_spec();
  spec.app_nodes = 0;
  EXPECT_THROW(
      hpas::runner::spec_from_json(hpas::runner::spec_to_json(spec)),
      hpas::ConfigError);

  hpas::Json grid = hpas::Json::object();
  grid.set("system", "bogus");
  try {
    hpas::runner::expand_grid(grid);
    FAIL() << "expand_grid accepted an unknown system";
  } catch (const hpas::ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "grid: unknown system 'bogus' (expected voltrino, chameleon "
              "or dragonfly1k)");
  }
}

TEST(RunScenario, InspectSeesEveryRunThatStopsAtAnEventBoundary) {
  // A cancelled run still hands its world to the hook, which is how
  // hpas-sim exports the simulated prefix of an interrupted run.
  hpas::CancelToken cancel;
  cancel.cancel(hpas::CancelReason::kShutdown);
  int calls = 0;
  int nodes = 0;
  const auto result = hpas::runner::run_scenario(
      valid_spec(), {.cancel = &cancel, .inspect = [&](hpas::sim::World& w) {
                       ++calls;
                       nodes = w.num_nodes();
                     }});
  EXPECT_EQ(result.status, hpas::runner::ScenarioStatus::kCancelled);
  EXPECT_EQ(calls, 1);
  EXPECT_GT(nodes, 0);
}

/// Per node of the scenario's world: the number of stored series.
std::vector<std::size_t> stored_series(hpas::runner::StoredNodes stored,
                                       std::string* csv) {
  std::vector<std::size_t> counts;
  const auto result = hpas::runner::run_scenario(
      valid_spec(), {.inspect =
                         [&](hpas::sim::World& w) {
                           for (int n = 0; n < w.num_nodes(); ++n)
                             counts.push_back(w.node_store(n).metric_count());
                         },
                     .store_samples = stored});
  EXPECT_EQ(result.status, hpas::runner::ScenarioStatus::kDone);
  *csv = result.metrics_csv;
  return counts;
}

TEST(RunScenario, StoresNodeZeroOnlyByDefault) {
  EXPECT_EQ(hpas::runner::RunOptions{}.store_samples,
            hpas::runner::StoredNodes::kNode0);
  std::string csv;
  const auto counts = stored_series(hpas::runner::StoredNodes::kNode0, &csv);
  ASSERT_GT(counts.size(), 1u);
  EXPECT_GT(counts[0], 0u);
  for (std::size_t n = 1; n < counts.size(); ++n)
    EXPECT_EQ(counts[n], 0u) << "node " << n;
}

TEST(RunScenario, AllNodesStoresEveryNodeAndNoneStoresNothing) {
  std::string node0_csv;
  stored_series(hpas::runner::StoredNodes::kNode0, &node0_csv);

  std::string all_csv;
  const auto all = stored_series(hpas::runner::StoredNodes::kAll, &all_csv);
  ASSERT_GT(all.size(), 1u);
  for (std::size_t n = 0; n < all.size(); ++n)
    EXPECT_EQ(all[n], all[0]) << "node " << n;
  // Node 0's samples do not depend on whether the other nodes are polled.
  EXPECT_EQ(all_csv, node0_csv);

  std::string none_csv;
  const auto none = stored_series(hpas::runner::StoredNodes::kNone, &none_csv);
  for (std::size_t n = 0; n < none.size(); ++n)
    EXPECT_EQ(none[n], 0u) << "node " << n;
  EXPECT_EQ(none_csv, "timestamp\n");
}

}  // namespace
