// hpas end to end: runs the built binary.
//
// Pool-verb flags: -j is bounded, and a value above the bound is a usage
// error (exit 2) naming --threads; every such sweep case is a --dry-run,
// so no pool is built even if the bound check regresses. The pool verbs
// declare -j and --fault-schedule from one place, so every one of them
// lists both.
//
// Crash safety: a sweep SIGKILLed once its journal holds a completed
// record, then resumed, is byte-identical to an uninterrupted run (the
// journal carries wall times and is excluded). So is a sweep stopped by
// one SIGINT: it drains, exits 0 and leaves a journal that --resume
// completes. Readiness is observed through inotify on the output
// directory, so the signal lands mid-sweep without any fixed delay. A
// grid whose scenarios never finish is cut by --scenario-timeout, each
// scenario journaled as a timeout, and the sweep exits 5. A grid above
// the samples-per-spec cap is a config error (exit 2).
//
// Search: a seed-pinned search writes the same journal and (with its own
// directory normalized away) the same frontier at -j 1 and -j 4, a
// journal torn in half resumes to the same bytes, and frontier entries
// 0 and 1 replay byte-for-byte.
#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include "runner/journal.hpp"

namespace {

struct Outcome {
  int status = -1;  ///< exit status; -1 when hpas died by a signal
  std::string output;  ///< stdout and stderr
};

Outcome run_hpas(const std::string& args) {
  const std::string command =
      std::string("'") + HPAS_BIN + "' " + args + " 2>&1";
  Outcome outcome;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return outcome;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
    outcome.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) outcome.status = WEXITSTATUS(status);
  return outcome;
}

const std::string kGrid = std::string("'") + HPAS_GRID + "'";

namespace fs = std::filesystem;

constexpr std::size_t kCrashGridScenarios = 8;  // crash_resume.json

TEST(HpasCli, ThreadsAboveTheBoundAreAUsageError) {
  // 2^32 + 1 and 2^32 once truncated to 1 and 0 (every hardware thread),
  // 2^31 to a negative count.
  for (const char* j : {"1025", "2147483648", "4294967296", "4294967297"}) {
    const Outcome run = run_hpas("sweep " + kGrid + " --dry-run -j " + j);
    EXPECT_EQ(run.status, 2) << "-j " << j << ": " << run.output;
    EXPECT_NE(run.output.find("--threads"), std::string::npos) << run.output;
    EXPECT_EQ(run.output.find("across"), std::string::npos) << run.output;
  }
  // Without a grid or space file search and dataset stop at their usage
  // line, which does not name --threads.
  for (const char* verb : {"search", "dataset"}) {
    const Outcome run = run_hpas(std::string(verb) + " -j 1025");
    EXPECT_EQ(run.status, 2) << verb << ": " << run.output;
    EXPECT_NE(run.output.find("--threads"), std::string::npos)
        << verb << ": " << run.output;
  }
}

TEST(HpasCli, ThreadsAtTheBoundAreAccepted) {
  const Outcome run = run_hpas("sweep " + kGrid + " --dry-run -j 1024");
  EXPECT_EQ(run.status, 0) << run.output;
  EXPECT_NE(run.output.find("across 1024 threads"), std::string::npos)
      << run.output;
}

TEST(HpasCli, EveryPoolVerbListsThreadsAndFaultSchedule) {
  for (const char* verb : {"sweep", "search", "dataset", "serve"}) {
    const Outcome run = run_hpas(std::string(verb) + " --help");
    EXPECT_EQ(run.status, 0) << verb;
    EXPECT_NE(run.output.find("--threads"), std::string::npos) << verb;
    EXPECT_NE(run.output.find("at most 1024"), std::string::npos) << verb;
    EXPECT_NE(run.output.find("--fault-schedule"), std::string::npos) << verb;
  }
  const Outcome submit = run_hpas("submit --help");
  EXPECT_EQ(submit.status, 0);
  EXPECT_NE(submit.output.find("--fault-schedule"), std::string::npos);
  EXPECT_EQ(submit.output.find("--threads"), std::string::npos);
}

std::size_t done_records(const std::string& journal) {
  std::size_t done = 0;
  for (const auto& rec : hpas::runner::read_journal(journal).records)
    if (rec.status == hpas::runner::JournalStatus::kDone) ++done;
  return done;
}

/// Every file in `dir` but sweep.journal, name -> bytes.
std::map<std::string, std::string> outputs_of(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || name == "sweep.journal") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[name] = {std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>()};
  }
  return files;
}

class HpasCliSweep : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::path(::testing::TempDir()) /
            ("hpas-sweep-kill-" + std::to_string(::getpid()));
    fs::remove_all(base_);
    fs::create_directories(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path base_;
};

/// A sweep of the crash grid, forked and exec'd with -j 2.
struct LiveSweep {
  pid_t pid = -1;
  bool ready = false;   ///< its journal held a completed record
  bool exited = false;  ///< it exited before that was seen (status below)
  int status = 0;
};

/// Starts `hpas sweep` of the crash grid into `out` and returns once the
/// journal holds a completed record, the sweep has exited, or 60 s have
/// passed. The directory is watched before the sweep starts, so no
/// journal append can slip between a check and the wait that follows it,
/// and the caller's signal lands mid-sweep without any fixed delay.
LiveSweep start_sweep_until_first_done(const fs::path& out) {
  LiveSweep sweep;
  fs::create_directories(out);
  const int watch = ::inotify_init1(IN_CLOEXEC | IN_NONBLOCK);
  if (watch < 0) return sweep;
  if (::inotify_add_watch(watch, out.c_str(),
                          IN_MODIFY | IN_CREATE | IN_MOVED_TO) < 0) {
    ::close(watch);
    return sweep;
  }

  const std::string out_arg = out.string();
  sweep.pid = ::fork();
  if (sweep.pid == 0) {
    if (std::freopen("/dev/null", "w", stdout) == nullptr) ::_exit(126);
    ::execl(HPAS_BIN, "hpas", "sweep", HPAS_CRASH_GRID, "-j", "2", "-o",
            out_arg.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Each journal append is an inotify event, so the loop re-reads the
  // journal only when it grew.
  const std::string journal = (out / "sweep.journal").string();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (sweep.pid > 0 && !sweep.exited &&
         std::chrono::steady_clock::now() < give_up) {
    sweep.ready = done_records(journal) > 0;
    if (sweep.ready) break;
    pollfd pfd{watch, POLLIN, 0};
    if (::poll(&pfd, 1, /*timeout_ms=*/1000) > 0) {
      char events[4096];
      while (::read(watch, events, sizeof events) > 0) {
      }
    }
    sweep.exited = ::waitpid(sweep.pid, &sweep.status, WNOHANG) == sweep.pid;
  }
  ::close(watch);
  return sweep;
}

/// Resumes the sweep in `out` and checks the merged result: `resumed`
/// scenarios come from the journal, the rest run, and every output but
/// the journal matches the uninterrupted run in `golden`.
void expect_resume_matches(const fs::path& out, const fs::path& golden,
                           std::size_t resumed_want) {
  const std::string grid = std::string("'") + HPAS_CRASH_GRID + "'";
  const Outcome resume =
      run_hpas("sweep " + grid + " -j 2 -o '" + out.string() + "' --resume");
  ASSERT_EQ(resume.status, 0) << resume.output;
  const std::string& log = resume.output;
  std::size_t executed = 0;
  std::size_t resumed = 0;
  const std::size_t at = log.find("sweep: ");
  ASSERT_NE(at, std::string::npos) << log;
  ASSERT_EQ(std::sscanf(log.c_str() + at, "sweep: %zu executed, %zu resumed",
                        &executed, &resumed),
            2)
      << log;
  EXPECT_EQ(resumed, resumed_want) << log;
  EXPECT_GE(executed, 1u) << log;
  EXPECT_EQ(executed + resumed, kCrashGridScenarios) << log;

  const auto want = outputs_of(golden);
  EXPECT_EQ(want.size(), kCrashGridScenarios + 1);  // CSVs and summary.json
  EXPECT_EQ(outputs_of(out), want);
}

TEST_F(HpasCliSweep, SigkillMidSweepThenResumeIsByteIdentical) {
  const std::string grid = std::string("'") + HPAS_CRASH_GRID + "'";
  const fs::path golden = base_ / "golden";
  const fs::path crash = base_ / "crash";
  const Outcome reference =
      run_hpas("sweep " + grid + " -j 2 -o '" + golden.string() + "'");
  ASSERT_EQ(reference.status, 0) << reference.output;

  const LiveSweep sweep = start_sweep_until_first_done(crash);
  ASSERT_GT(sweep.pid, 0);
  if (!sweep.exited) {
    ::kill(sweep.pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(sweep.pid, &status, 0), sweep.pid);
    EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  }
  ASSERT_TRUE(sweep.ready) << "the sweep never journaled a completed scenario";
  const std::size_t done_at_kill =
      done_records((crash / "sweep.journal").string());
  EXPECT_LT(done_at_kill, kCrashGridScenarios)
      << "the kill came after the sweep";

  // Resume replays the journal, keeps what validates and runs the rest.
  expect_resume_matches(crash, golden, done_at_kill);
}

TEST_F(HpasCliSweep, SigintDrainLeavesResumableJournal) {
  const std::string grid = std::string("'") + HPAS_CRASH_GRID + "'";
  const fs::path golden = base_ / "golden";
  const fs::path drain = base_ / "drain";
  const Outcome reference =
      run_hpas("sweep " + grid + " -j 2 -o '" + golden.string() + "'");
  ASSERT_EQ(reference.status, 0) << reference.output;

  // One SIGINT once a scenario is journaled: the sweep drains what is in
  // flight, journals it and exits 0.
  const LiveSweep sweep = start_sweep_until_first_done(drain);
  ASSERT_GT(sweep.pid, 0);
  ASSERT_FALSE(sweep.exited) << "the sweep finished before the signal";
  ::kill(sweep.pid, SIGINT);
  int status = 0;
  ASSERT_EQ(::waitpid(sweep.pid, &status, 0), sweep.pid);
  ASSERT_TRUE(sweep.ready) << "the sweep never journaled a completed scenario";
  ASSERT_TRUE(WIFEXITED(status)) << "the drain did not exit normally";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  // A sweep that outran the signal would journal every scenario and
  // leave nothing for the drain to have stopped.
  const std::size_t done_at_drain =
      done_records((drain / "sweep.journal").string());
  EXPECT_LT(done_at_drain, kCrashGridScenarios)
      << "the signal came after the sweep";

  expect_resume_matches(drain, golden, done_at_drain);
}

TEST_F(HpasCliSweep, ScenarioTimeoutCutsAHungGrid) {
  // hung_sweep.json asks for a 1e9 s window of CoMD under netoccupy,
  // sampled every 1e6 s: no run ends within the timeout, and the few
  // samples keep a hung scenario's memory flat.
  const fs::path out = base_ / "hung";
  const Outcome run = run_hpas(std::string("sweep '") + HPAS_HUNG_GRID +
                               "' -j 2 -o '" + out.string() +
                               "' --scenario-timeout 2s");
  // Exit 5: the sweep completed, but not every scenario did.
  EXPECT_EQ(run.status, 5) << run.output;
  std::ifstream in(out / "summary.json");
  const std::string summary{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
  EXPECT_NE(summary.find("\"status\": \"timeout\""), std::string::npos)
      << summary;
  EXPECT_TRUE(fs::is_regular_file(out / "sweep.journal"));
}

TEST_F(HpasCliSweep, OverCapGridIsAConfigError) {
  // The former hung_sweep.json: a 1e9 s window sampled every millisecond
  // asks for 1e12 samples, above the samples-per-spec cap.
  const fs::path grid = base_ / "old_hung_sweep.json";
  std::ofstream(grid) << R"({"name": "hung_sweep", "apps": ["CoMD"],
    "anomalies": ["netoccupy"], "repeats": 2, "duration_s": 1000000000,
    "sample_period_s": 0.001})";
  const Outcome run = run_hpas("sweep '" + grid.string() + "' -o '" +
                               (base_ / "out").string() + "'");
  EXPECT_EQ(run.status, 2) << run.output;
  EXPECT_NE(run.output.find("exceeds the cap"), std::string::npos)
      << run.output;
  EXPECT_FALSE(fs::exists(base_ / "out" / "summary.json"));
}

/// Guided search on the fig08 subspace with a small seed-pinned budget.
class HpasCliSearch : public HpasCliSweep {
 protected:
  Outcome search(const fs::path& out, int threads,
                 const std::string& extra = "") {
    return run_hpas(std::string("search '") + HPAS_SPACE +
                    "' --budget 16 -b 4 --seed 42 -j " +
                    std::to_string(threads) + " -o '" + out.string() + "'" +
                    extra);
  }
};

std::string file_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// frontier.json with its own directory (embedded in the replay command
/// lines) replaced by "OUT".
std::string normalized_frontier(const fs::path& dir) {
  std::string text = file_bytes(dir / "frontier.json");
  const std::string prefix = dir.string() + "/";
  for (std::size_t at = text.find(prefix); at != std::string::npos;
       at = text.find(prefix, at))
    text.replace(at, prefix.size(), "OUT/");
  return text;
}

TEST_F(HpasCliSearch, JournalAndFrontierAreThreadCountInvariant) {
  const fs::path a = base_ / "search-a";
  const fs::path b = base_ / "search-b";
  const Outcome serial = search(a, 1);
  ASSERT_EQ(serial.status, 0) << serial.output;
  const Outcome parallel = search(b, 4);
  ASSERT_EQ(parallel.status, 0) << parallel.output;
  const std::string journal = file_bytes(a / "search.journal");
  EXPECT_FALSE(journal.empty());
  EXPECT_EQ(file_bytes(b / "search.journal"), journal);
  EXPECT_NE(normalized_frontier(a).find("OUT/frontier.json"),
            std::string::npos);
  EXPECT_EQ(normalized_frontier(b), normalized_frontier(a));
}

TEST_F(HpasCliSearch, TornJournalResumeConvergesToTheSameBytes) {
  const fs::path a = base_ / "search-a";
  const fs::path cut = base_ / "search-cut";
  const Outcome full = search(a, 1);
  ASSERT_EQ(full.status, 0) << full.output;
  const std::string journal = file_bytes(a / "search.journal");
  fs::create_directories(cut);
  std::ofstream(cut / "search.journal", std::ios::binary)
      << journal.substr(0, journal.size() / 2);
  const Outcome resumed = search(cut, 4, " --resume");
  ASSERT_EQ(resumed.status, 0) << resumed.output;
  EXPECT_EQ(file_bytes(cut / "search.journal"), journal);
  EXPECT_EQ(normalized_frontier(cut), normalized_frontier(a));
}

TEST_F(HpasCliSearch, FrontierReplayReproducesTheSummaryRow) {
  const fs::path a = base_ / "search-a";
  const Outcome full = search(a, 4);
  ASSERT_EQ(full.status, 0) << full.output;
  for (const char* index : {"0", "1"}) {
    const Outcome replay = run_hpas("search --replay '" +
                                    (a / "frontier.json").string() +
                                    "' --index " + index);
    EXPECT_EQ(replay.status, 0) << "--index " << index << ": "
                                 << replay.output;
    EXPECT_NE(replay.output.find("reproduced byte-for-byte"),
              std::string::npos)
        << replay.output;
  }
}

}  // namespace
