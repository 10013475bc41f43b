// Crash-safe sweeps: interrupted-then-resumed output must be
// byte-identical to an uninterrupted run, with only the incomplete
// scenarios re-executed; hung scenarios must be cut by the watchdog and
// journaled as timeouts without taking the rest of the grid down.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"

namespace {

using hpas::CancelReason;
using hpas::CancelToken;
using hpas::runner::JournalStatus;
using hpas::runner::read_journal;
using hpas::runner::run_sweep;
using hpas::runner::ScenarioSpec;
using hpas::runner::ScenarioStatus;
using hpas::runner::SweepGrid;
using hpas::runner::SweepOptions;
using hpas::runner::SweepResult;
using hpas::runner::write_outputs;

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

/// A scenario that generates simulator events effectively forever: the
/// watchdog, not the grid, must end it. Shaped like
/// examples/grids/hung_sweep.json: the app and the network anomaly keep
/// the event queue busy for a 1e9 s window, while sampling every 1e6 s
/// keeps the stored samples (1000) far under kMaxSamplesPerSpec.
ScenarioSpec hung_scenario(const std::string& name, std::uint64_t seed) {
  ScenarioSpec spec = quick_scenario(name, seed);
  spec.app = "CoMD";
  spec.anomaly = "netoccupy";
  spec.duration_s = 1e9;
  spec.sample_period_s = 1e6;
  return spec;
}

SweepGrid quick_grid(std::size_t n) {
  SweepGrid grid;
  grid.name = "crash-resume";
  for (std::size_t i = 0; i < n; ++i)
    grid.scenarios.push_back(
        quick_scenario(std::string("s").append(std::to_string(i)), 1000 + i));
  return grid;
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

class CrashResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("hpas-crash-resume-" + std::string(::testing::UnitTest::
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

TEST_F(CrashResumeTest, ResumeAfterInterruptionIsByteIdentical) {
  const SweepGrid grid = quick_grid(6);

  // Reference: one uninterrupted journaled run.
  SweepOptions full;
  full.threads = 2;
  full.journal_path = out("full") + "/sweep.journal";
  const SweepResult uninterrupted = run_sweep(grid, full);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.first_error();
  write_outputs(uninterrupted, out("full"));

  // "Crash" after half the grid: run only a prefix against the same
  // journal/output dir, exactly the on-disk state a SIGKILL leaves when
  // three scenarios had completed and checkpointed.
  SweepGrid prefix = grid;
  prefix.scenarios.resize(3);
  SweepOptions interrupted;
  interrupted.threads = 2;
  interrupted.journal_path = out("killed") + "/sweep.journal";
  ASSERT_TRUE(run_sweep(prefix, interrupted).ok());

  // Resume the FULL grid in the same directory.
  SweepOptions resume = interrupted;
  resume.resume = true;
  const SweepResult resumed = run_sweep(grid, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.first_error();
  write_outputs(resumed, out("killed"));

  // Only the missing half executed; the completed half was restored.
  EXPECT_EQ(resumed.resumed, 3u);
  EXPECT_EQ(resumed.executed, 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_TRUE(resumed.scenarios[i].resumed) << i;
  for (std::size_t i = 3; i < 6; ++i)
    EXPECT_FALSE(resumed.scenarios[i].resumed) << i;

  // The merged output is byte-identical to the uninterrupted run.
  EXPECT_EQ(dir_contents(out("full")), dir_contents(out("killed")));
}

TEST_F(CrashResumeTest, CorruptOutputOnDiskIsReRun) {
  const SweepGrid grid = quick_grid(3);
  SweepOptions options;
  options.threads = 1;
  options.journal_path = out("run") + "/sweep.journal";
  ASSERT_TRUE(run_sweep(grid, options).ok());

  // Tamper with one CSV; its journaled CRC no longer matches.
  {
    std::ofstream tamper(out("run") + "/s1.csv",
                         std::ios::binary | std::ios::app);
    tamper << "tampered\n";
  }
  SweepOptions resume = options;
  resume.resume = true;
  const SweepResult resumed = run_sweep(grid, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.first_error();
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.executed, 1u);
  EXPECT_FALSE(resumed.scenarios[1].resumed);
}

TEST_F(CrashResumeTest, DeletedOutputOnDiskIsReRun) {
  const SweepGrid grid = quick_grid(3);
  SweepOptions options;
  options.threads = 1;
  options.journal_path = out("run") + "/sweep.journal";
  ASSERT_TRUE(run_sweep(grid, options).ok());

  std::filesystem::remove(out("run") + "/s2.csv");
  SweepOptions resume = options;
  resume.resume = true;
  const SweepResult resumed = run_sweep(grid, resume);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.executed, 1u);
}

TEST_F(CrashResumeTest, ResumeSweepsOrphanedTmpFiles) {
  const SweepGrid grid = quick_grid(2);
  SweepOptions options;
  options.threads = 1;
  options.journal_path = out("run") + "/sweep.journal";
  ASSERT_TRUE(run_sweep(grid, options).ok());

  {
    std::ofstream orphan(out("run") + "/s0.csv.tmp", std::ios::binary);
    orphan << "half-written";
  }
  SweepOptions resume = options;
  resume.resume = true;
  const SweepResult resumed = run_sweep(grid, resume);
  EXPECT_EQ(resumed.tmp_removed, 1u);
  EXPECT_FALSE(std::filesystem::exists(out("run") + "/s0.csv.tmp"));
}

TEST_F(CrashResumeTest, TornJournalTailIsSelfHealed) {
  const SweepGrid grid = quick_grid(3);
  const std::string journal_path = out("run") + "/sweep.journal";
  SweepOptions options;
  options.threads = 1;
  options.journal_path = journal_path;
  ASSERT_TRUE(run_sweep(grid, options).ok());

  // Tear the tail as a crash mid-append would.
  const auto size = std::filesystem::file_size(journal_path);
  std::filesystem::resize_file(journal_path, size - 5);

  SweepOptions resume = options;
  resume.resume = true;
  const SweepResult resumed = run_sweep(grid, resume);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.journal_dropped, 1u);
  EXPECT_EQ(resumed.resumed, 2u);  // the torn record's scenario re-ran
  EXPECT_EQ(resumed.executed, 1u);

  // The rewritten journal reads back clean and complete.
  const auto read = read_journal(journal_path);
  EXPECT_TRUE(read.damage.empty()) << read.damage;
  EXPECT_EQ(read.records.size(), 3u);
}

TEST_F(CrashResumeTest, WatchdogCancelsHungScenarioAndSweepContinues) {
  SweepGrid grid;
  grid.name = "hung";
  grid.scenarios = {quick_scenario("before", 1), hung_scenario("stuck", 2),
                    quick_scenario("after", 3)};
  SweepOptions options;
  options.threads = 1;  // serial: the hung scenario blocks the lane
  options.capture_traces = true;
  options.scenario_timeout_s = 0.3;
  options.journal_path = out("run") + "/sweep.journal";

  const auto start = std::chrono::steady_clock::now();
  const SweepResult result = run_sweep(grid, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.scenarios[0].status, ScenarioStatus::kDone);
  EXPECT_EQ(result.scenarios[1].status, ScenarioStatus::kTimeout);
  EXPECT_EQ(result.scenarios[2].status, ScenarioStatus::kDone);
  EXPECT_EQ(result.count(ScenarioStatus::kTimeout), 1u);
  // Cancellation is cooperative but prompt: well under timeout + 1s.
  EXPECT_LT(elapsed, options.scenario_timeout_s + 10.0);

  // The truncated trace of the hung scenario was published and is
  // journaled as a timeout.
  const auto published = dir_contents(out("run"));
  const auto stuck_trace = published.find("stuck.trace.bin");
  ASSERT_NE(stuck_trace, published.end());
  EXPECT_FALSE(stuck_trace->second.empty());
  const auto read = read_journal(options.journal_path);
  bool found = false;
  for (const auto& rec : read.records) {
    if (rec.name != "stuck") continue;
    found = true;
    EXPECT_EQ(rec.status, JournalStatus::kTimeout);
  }
  EXPECT_TRUE(found);

  // A timed-out scenario is not "done": resume re-runs it (and only it).
  write_outputs(result, out("run"));
  SweepOptions resume = options;
  resume.scenario_timeout_s = 0.0;  // no watchdog this time...
  resume.resume = true;
  SweepGrid finishable = grid;
  finishable.scenarios[1].duration_s = 5.0;  // ...and the grid is fixed
  finishable.scenarios[1].sample_period_s = 1.0;
  const SweepResult resumed = run_sweep(finishable, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.first_error();
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.executed, 1u);
}

TEST_F(CrashResumeTest, GracefulTokenDrainsAndResumeCompletes) {
  const SweepGrid grid = quick_grid(5);
  CancelToken graceful;
  graceful.cancel(CancelReason::kShutdown);  // "Ctrl-C before the sweep"

  SweepOptions options;
  options.threads = 1;
  options.journal_path = out("run") + "/sweep.journal";
  options.graceful = &graceful;
  const SweepResult drained = run_sweep(grid, options);

  EXPECT_TRUE(drained.interrupted);
  EXPECT_FALSE(drained.ok());
  // The drain was requested before the sweep, so the stop check before
  // the first submission sees it and nothing starts.
  EXPECT_EQ(drained.executed, 0u);
  for (const auto& s : drained.scenarios)
    EXPECT_EQ(s.status, ScenarioStatus::kNotRun)
        << scenario_status_name(s.status);

  SweepOptions resume = options;
  resume.graceful = nullptr;
  resume.resume = true;
  const SweepResult resumed = run_sweep(grid, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.first_error();
  EXPECT_EQ(resumed.resumed + resumed.executed, 5u);
  EXPECT_EQ(resumed.resumed, drained.count(ScenarioStatus::kDone));
}

TEST_F(CrashResumeTest, HardTokenCancelsRunningScenarios) {
  SweepGrid grid;
  grid.name = "hard";
  grid.scenarios = {hung_scenario("h0", 1), hung_scenario("h1", 2)};
  CancelToken hard;

  SweepOptions options;
  options.threads = 2;
  options.journal_path = out("run") + "/sweep.journal";
  options.hard = &hard;

  std::thread killer([&hard] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    hard.cancel(CancelReason::kShutdown);
  });
  const SweepResult result = run_sweep(grid, options);
  killer.join();

  EXPECT_TRUE(result.interrupted);
  for (const auto& s : result.scenarios)
    EXPECT_TRUE(s.status == ScenarioStatus::kCancelled ||
                s.status == ScenarioStatus::kNotRun)
        << scenario_status_name(s.status);
  // The journal survived the hard cancel and is readable.
  const auto read = read_journal(options.journal_path);
  EXPECT_TRUE(read.damage.empty()) << read.damage;
  for (const auto& rec : read.records)
    EXPECT_EQ(rec.status, JournalStatus::kCancelled);
}

TEST_F(CrashResumeTest, SweepDeadlineCutsTheGrid) {
  SweepGrid grid;
  grid.name = "deadline";
  for (int i = 0; i < 3; ++i)
    grid.scenarios.push_back(
        hung_scenario(std::string("d").append(std::to_string(i)),
                      static_cast<std::uint64_t>(i)));
  SweepOptions options;
  options.threads = 1;
  // The pool pops LIFO; one queue slot makes d0 start before d1 is queued.
  options.queue_capacity = 1;
  options.deadline_s = 0.3;

  const auto start = std::chrono::steady_clock::now();
  const SweepResult result = run_sweep(grid, options);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.ok());
  EXPECT_LT(elapsed, 10.0);
  // The deadline cancels the running scenario through its parent token;
  // the queued ones see the stop when they start and never run.
  EXPECT_EQ(result.executed, 1u);
  EXPECT_EQ(result.scenarios[0].status, ScenarioStatus::kCancelled);
  for (std::size_t i = 1; i < result.scenarios.size(); ++i)
    EXPECT_EQ(result.scenarios[i].status, ScenarioStatus::kNotRun)
        << scenario_status_name(result.scenarios[i].status);
}

TEST_F(CrashResumeTest, GracefulDrainAfterQueueingLeavesQueuedScenariosNotRun) {
  SweepGrid grid = quick_grid(5);
  grid.scenarios[0] = hung_scenario("stuck", 1);
  CancelToken graceful;

  SweepOptions options;
  options.threads = 1;
  // The pool pops LIFO; one queue slot makes "stuck" start before s1 is
  // queued. s1 and s2 are queued before the drain, so only the stop check
  // each task makes when it starts keeps them from running.
  options.queue_capacity = 1;
  options.scenario_timeout_s = 2.0;
  options.journal_path = out("run") + "/sweep.journal";
  options.graceful = &graceful;

  std::thread drainer([&graceful] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    graceful.cancel(CancelReason::kShutdown);
  });
  const SweepResult drained = run_sweep(grid, options);
  drainer.join();

  EXPECT_TRUE(drained.interrupted);
  EXPECT_EQ(drained.executed, 1u);
  EXPECT_EQ(drained.scenarios[0].status, ScenarioStatus::kTimeout);
  for (std::size_t i = 1; i < drained.scenarios.size(); ++i)
    EXPECT_EQ(drained.scenarios[i].status, ScenarioStatus::kNotRun)
        << drained.scenarios[i].spec.name << ": "
        << scenario_status_name(drained.scenarios[i].status);
  const auto read = read_journal(options.journal_path);
  ASSERT_EQ(read.records.size(), 1u);
  EXPECT_EQ(read.records[0].name, "stuck");
  EXPECT_EQ(read.records[0].status, JournalStatus::kTimeout);

  write_outputs(drained, out("run"));
  SweepOptions resume = options;
  resume.graceful = nullptr;
  resume.scenario_timeout_s = 0.0;
  resume.resume = true;
  grid.scenarios[0] = quick_scenario("stuck", 1);  // the grid is fixed
  const SweepResult resumed = run_sweep(grid, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.first_error();
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.executed, 5u);
}

}  // namespace
