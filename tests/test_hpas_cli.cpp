// hpas pool-verb flags end to end: runs the built binary. -j is bounded,
// and a value above the bound is a usage error (exit 2) naming --threads;
// every sweep case is a --dry-run, so no pool is built even if the bound
// check regresses. The pool verbs declare -j and --fault-schedule from one
// place, so every one of them lists both.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <string>

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

}  // namespace
