// Crash-point batteries for the sweep and dataset verbs, built like the
// server's (test_server_chaos.cpp): count every crash point an armed run
// passes, fork a child that dies at exactly point k, resume unarmed on
// the bytes it left, and require the outputs to be byte-identical to an
// uncrashed run. A final child armed one past the last point must run to
// completion, which proves the enumeration exhaustive.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dataset/shards.hpp"
#include "faultline/durable.hpp"
#include "runner/runner.hpp"

namespace {

namespace fl = hpas::faultline;
namespace fs = std::filesystem;
using hpas::runner::ScenarioSpec;
using hpas::runner::SweepGrid;
using hpas::runner::SweepOptions;

/// Every regular file in `dir` except `skip`, name -> bytes. Leftover
/// `*.tmp` files show up as extra entries.
std::map<std::string, std::string> dir_contents(const fs::path& dir,
                                                const std::string& skip) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name == skip) continue;
    files[name] = fl::read_file(entry.path().string()).value_or("<unreadable>");
  }
  return files;
}

class CrashBatteryTest : public ::testing::Test {
 protected:
  using Run = std::function<void(const std::string& dir)>;

  void SetUp() override {
    fl::disarm();
    base_ = fs::temp_directory_path() /
            ("hpas-crash-battery-" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override {
    fl::disarm();
    fs::remove_all(base_);
  }

  /// Runs `fresh` uncrashed for the reference bytes and once armed to
  /// count its crash points, then crashes it at every point and checks
  /// that `resume` restores the reference bytes (all files but `skip`).
  /// Returns the number of crash points.
  std::uint64_t run_battery(const Run& fresh, const Run& resume,
                            const std::string& skip) {
    const std::string ref = (base_ / "ref").string();
    fresh(ref);
    const auto want = dir_contents(ref, skip);

    fl::arm(fl::FaultSchedule{});
    fresh((base_ / "probe").string());
    const std::uint64_t points = fl::crash_points_passed();
    fl::disarm();

    for (std::uint64_t k = 0; k <= points; ++k) {
      const std::string dir = (base_ / ("crash" + std::to_string(k))).string();
      const pid_t pid = ::fork();
      if (pid < 0) {
        ADD_FAILURE() << "fork failed";
        return points;
      }
      if (pid == 0) {
        fl::FaultSchedule schedule;
        schedule.crash_at = static_cast<std::int64_t>(k);
        fl::arm(schedule);
        try {
          fresh(dir);
        } catch (...) {
          ::_exit(1);
        }
        ::_exit(0);
      }
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
        ADD_FAILURE() << "crash point " << k << ": child did not exit";
        continue;
      }
      // Past the last point the run outlives its whole write sequence.
      EXPECT_EQ(WEXITSTATUS(status), k < points ? 137 : 0)
          << "crash point " << k;
      if (k == points) break;
      resume(dir);
      EXPECT_EQ(dir_contents(dir, skip), want) << "crash point " << k;
    }
    return points;
  }

  fs::path base_;
};

ScenarioSpec quick_scenario(const std::string& name, std::uint64_t seed) {
  ScenarioSpec spec;
  spec.name = name;
  spec.system = "voltrino";
  spec.app = "none";
  spec.anomaly = "none";
  spec.duration_s = 5.0;
  spec.sample_period_s = 1.0;
  spec.seed = seed;
  return spec;
}

TEST_F(CrashBatteryTest, SweepResumesByteIdenticallyAtEveryCrashPoint) {
  SweepGrid grid;
  grid.name = "crash-battery";
  grid.scenarios = {quick_scenario("s0", 40), quick_scenario("s1", 41)};
  const auto sweep = [&grid](const std::string& dir, bool resume) {
    SweepOptions options;
    options.threads = 1;
    options.capture_traces = true;
    options.journal_path = dir + "/sweep.journal";
    options.resume = resume;
    const auto result = hpas::runner::run_sweep(grid, options);
    ASSERT_TRUE(result.ok()) << result.first_error();
    hpas::runner::write_outputs(result, dir);
  };
  const std::uint64_t points = run_battery(
      [&](const std::string& dir) { sweep(dir, false); },
      [&](const std::string& dir) { sweep(dir, true); }, "sweep.journal");
  // Journal header: write + fsync + directory fsync = 4. Per scenario,
  // during the run: CSV and trace (write x2, fsync, rename, directory
  // fsync = 5 each) then the record (write x2 + fsync = 3): 13. Then
  // write_outputs: summary.json alone (5) -- each scenario's files were
  // published once, during the run.
  EXPECT_EQ(points, 4u + 2 * 13 + 5);
}

TEST_F(CrashBatteryTest, DatasetResumesByteIdenticallyAtEveryCrashPoint) {
  hpas::dataset::DatasetMeta meta;
  meta.plan_digest = 0x5eed5eed12345678ull;
  meta.rows = 8;
  meta.num_features = 3;
  meta.shards = 2;
  meta.class_names = {"none", "anom"};
  meta.feature_names = {"f0", "f1", "f2"};
  // Rows are appended in plan order from one thread -- the order a
  // single-worker factory produces -- so the write sequence, and with it
  // every crash point, is the same in each run.
  const auto build = [&meta](const std::string& dir, bool resume) {
    hpas::dataset::DatasetWriter writer(
        meta, {.out_dir = dir, .checkpoint_rows = 2, .resume = resume});
    for (std::uint64_t row = 0; row < meta.rows; ++row) {
      if (writer.row_durable(row)) continue;
      const double x = static_cast<double>(row);
      const std::vector<double> features = {x, 0.5 * x - 3.0, 1.0 / (1.0 + x)};
      writer.append(row, static_cast<int>(row % 3 == 0), features);
    }
    writer.finish(/*write_csv=*/true);
  };
  const std::uint64_t points = run_battery(
      [&](const std::string& dir) { build(dir, false); },
      [&](const std::string& dir) { build(dir, true); }, "");
  // Setup: two shard headers (write x2 each), the directory fsync, the
  // journal header (4) and the plan record (3) = 12. Rows: frames are
  // buffered per shard, so each of the four checkpoints writes its two
  // frames at once (2) before the shard fsync and the record (4) = 24.
  // finish(): dataset.csv and manifest.json, 5 each = 10.
  EXPECT_EQ(points, 12u + 24 + 10);
}

}  // namespace
