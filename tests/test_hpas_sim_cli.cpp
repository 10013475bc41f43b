// hpas-sim end to end: runs the real binary and pins the exit code and
// the CRC32 of every file each run leaves behind. The digests are the
// single-scenario CLI's output contract -- flags, placement, injector
// failure, trace bytes and the replay check -- so any change to how the
// binary builds, runs or writes a scenario shows up here as a digest
// mismatch. One SIGINT mid-run must stop the binary with exit 0 and
// every node's CSV; the signal is sent once the child catches SIGINT, as
// /proc/<pid>/status shows, never after a fixed delay.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.hpp"

namespace {

namespace fs = std::filesystem;

/// Log file the runs' stdout+stderr go to; not an output, never digested.
constexpr const char* kLog = "log.txt";

class HpasSimCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hpas_sim_cli_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs hpas-sim with `args` inside the test directory; returns its exit
  /// status (-1 when it died by a signal).
  int run(const std::vector<std::string>& args) {
    const pid_t pid = start(args);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// Starts hpas-sim with `args` inside the test directory, its stdout
  /// and stderr appended to the log; returns the child's pid.
  pid_t start(const std::vector<std::string>& args) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (::chdir(dir_.c_str()) != 0) ::_exit(126);
      const int fd = ::open(kLog, O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (fd < 0) ::_exit(126);
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(HPAS_SIM_BIN));
      for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(HPAS_SIM_BIN, argv.data());
      ::_exit(127);
    }
    return pid;
  }

  std::string log() const { return read(dir_ / kLog); }

  /// file name -> CRC32 (8 hex digits) of every output in the directory.
  std::map<std::string, std::string> digests() const {
    std::map<std::string, std::string> out;
    for (const auto& entry : fs::directory_iterator(dir_)) {
      const std::string name = entry.path().filename().string();
      if (name == kLog) continue;
      char hex[9];
      std::snprintf(hex, sizeof hex, "%08x", hpas::crc32(read(entry.path())));
      out[name] = hex;
    }
    return out;
  }

  static std::string read(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
};

using Digests = std::map<std::string, std::string>;

// CoMD under a default-placement memleak (node 0, core 0), with a trace.
const Digests kMemleakTraced = {
    {"m.node0.csv", "0c6ce6a5"},
    {"m.node1.csv", "174f4bd4"},
    {"m.node2.csv", "174f4bd4"},
    {"m.node3.csv", "174f4bd4"},
    {"m.node4.csv", "f534042c"},
    {"m.node5.csv", "174f4bd4"},
    {"m.node6.csv", "174f4bd4"},
    {"m.node7.csv", "174f4bd4"},
    {"m.trace.bin", "ffc4037d"},
};

// miniGhost with cpuoccupy moved to node 2, core 5.
const Digests kCpuoccupyPlaced = {
    {"c.node0.csv", "fef5dc85"},
    {"c.node1.csv", "174f4bd4"},
    {"c.node2.csv", "6db9fef6"},
    {"c.node3.csv", "174f4bd4"},
    {"c.node4.csv", "fef5dc85"},
    {"c.node5.csv", "174f4bd4"},
    {"c.node6.csv", "174f4bd4"},
    {"c.node7.csv", "174f4bd4"},
};

// Idle chameleon cluster.
const Digests kChameleonIdle = {
    {"idle.node0.csv", "1f9e6943"},
    {"idle.node1.csv", "1f9e6943"},
    {"idle.node2.csv", "1f9e6943"},
    {"idle.node3.csv", "1f9e6943"},
    {"idle.node4.csv", "1f9e6943"},
    {"idle.node5.csv", "1f9e6943"},
};

// iobandwidth whose injector loses one of its four tasks at t=10s.
const Digests kFailingInjector = {
    {"f.node0.csv", "d072d2e8"},
    {"f.node1.csv", "174f4bd4"},
    {"f.node2.csv", "174f4bd4"},
    {"f.node3.csv", "174f4bd4"},
    {"f.node4.csv", "d072d2e8"},
    {"f.node5.csv", "174f4bd4"},
    {"f.node6.csv", "174f4bd4"},
    {"f.node7.csv", "174f4bd4"},
    {"f.trace.bin", "3817c8d4"},
};

/// Prints `got` in the form the tables above use, so a deliberate
/// contract change can be re-pinned by pasting.
std::string table(const Digests& got) {
  std::string s;
  for (const auto& [name, crc] : got)
    s += "    {\"" + name + "\", \"" + crc + "\"},\n";
  return s;
}

const std::vector<std::string> kMemleakArgs = {
    "--app", "CoMD", "--anomaly", "memleak", "--duration", "60s", "-o", "m"};

TEST_F(HpasSimCliTest, DefaultPlacementMemleakWithTrace) {
  std::vector<std::string> args = kMemleakArgs;
  args.insert(args.end(), {"--trace", "m.trace.bin"});
  ASSERT_EQ(run(args), 0) << log();
  EXPECT_EQ(digests(), kMemleakTraced) << table(digests());
}

TEST_F(HpasSimCliTest, ExplicitPlacementCpuoccupy) {
  ASSERT_EQ(run({"--app", "miniGhost", "--anomaly", "cpuoccupy",
                 "--anomaly-node", "2", "--anomaly-core", "5", "--duration",
                 "60s", "-o", "c"}),
            0)
      << log();
  EXPECT_EQ(digests(), kCpuoccupyPlaced) << table(digests());
}

TEST_F(HpasSimCliTest, IdleChameleon) {
  ASSERT_EQ(run({"--preset", "chameleon", "--duration", "60s", "-o", "idle"}),
            0)
      << log();
  EXPECT_EQ(digests(), kChameleonIdle) << table(digests());
}

TEST_F(HpasSimCliTest, InjectorFailureWithTrace) {
  ASSERT_EQ(run({"--app", "CoMD", "--anomaly", "iobandwidth", "--fail-at",
                 "10s", "--fail-tasks", "1", "--duration", "60s", "-o", "f",
                 "--trace", "f.trace.bin"}),
            0)
      << log();
  EXPECT_EQ(digests(), kFailingInjector) << table(digests());
}

TEST_F(HpasSimCliTest, FailTasksZeroFailsEveryInjectorTask) {
  ASSERT_EQ(run({"--app", "CoMD", "--anomaly", "iobandwidth", "--fail-at",
                 "10s", "--fail-tasks", "0", "--duration", "60s", "-o", "f",
                 "--trace", "f.trace.bin"}),
            0)
      << log();
  // iobandwidth's node CSVs do not see which tasks died; the trace does.
  Digests want = kFailingInjector;
  want["f.trace.bin"] = "9fabf1a4";
  EXPECT_EQ(digests(), want) << table(digests());
}

TEST_F(HpasSimCliTest, FailAtZeroIsAUsageError) {
  // Grids use injector_fail_at_s = 0 for "no failure", so a failure at
  // t=0 is refused rather than silently dropped.
  ASSERT_EQ(run({"--app", "CoMD", "--anomaly", "iobandwidth", "--fail-at",
                 "0", "--duration", "60s", "-o", "z"}),
            2)
      << log();
  EXPECT_NE(log().find("--fail-at must be positive"), std::string::npos)
      << log();
  EXPECT_TRUE(digests().empty()) << table(digests());
}

TEST_F(HpasSimCliTest, CheckTraceMatchExitsZero) {
  std::vector<std::string> record = kMemleakArgs;
  record.insert(record.end(), {"--trace", "m.trace.bin"});
  ASSERT_EQ(run(record), 0) << log();

  // The replay writes the same CSVs over the recorded ones and leaves the
  // trace alone, so the directory still digests to the recorded run.
  std::vector<std::string> check = kMemleakArgs;
  check.insert(check.end(), {"--check-trace", "m.trace.bin"});
  ASSERT_EQ(run(check), 0) << log();
  EXPECT_NE(log().find("replay check passed"), std::string::npos) << log();
  EXPECT_EQ(digests(), kMemleakTraced) << table(digests());
}

TEST_F(HpasSimCliTest, CheckTraceMismatchExitsThreeAndWritesNoCsv) {
  std::vector<std::string> record = kMemleakArgs;
  record.insert(record.end(), {"--trace", "m.trace.bin"});
  ASSERT_EQ(run(record), 0) << log();
  const Digests recorded = digests();

  // A doubled leak rate diverges at the anomaly's start record; the
  // failed check exits before any CSV is written, under any prefix.
  ASSERT_EQ(run({"--app", "CoMD", "--anomaly", "memleak", "--intensity", "2",
                 "--duration", "60s", "-o", "x", "--check-trace",
                 "m.trace.bin"}),
            3)
      << log();
  EXPECT_NE(log().find("replay check FAILED"), std::string::npos) << log();
  EXPECT_EQ(digests(), recorded) << table(digests());
}

/// True once `pid` has a handler for SIGINT: bit SIGINT-1 of the SigCgt
/// mask in /proc/<pid>/status.
bool catches_sigint(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("SigCgt:", 0) != 0) continue;
    const unsigned long long mask = std::stoull(line.substr(7), nullptr, 16);
    return ((mask >> (SIGINT - 1)) & 1u) != 0;
  }
  return false;
}

TEST_F(HpasSimCliTest, SigintExportsTheSimulatedPrefix) {
  // A 1e6 s window takes seconds to simulate, and the signal follows the
  // handler's installation by about a millisecond, so it lands mid-run.
  const pid_t pid = start({"--app", "CoMD", "--anomaly", "membw",
                           "--duration", "1000000s", "-o", "run"});
  ASSERT_GT(pid, 0);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int status = 0;
  bool exited = false;
  bool ready = false;
  while (!exited && std::chrono::steady_clock::now() < give_up) {
    ready = catches_sigint(pid);
    if (ready) break;
    exited = ::waitpid(pid, &status, WNOHANG) == pid;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!ready && !exited) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  ASSERT_TRUE(ready) << "hpas-sim never installed its SIGINT handler\n"
                     << log();

  // One signal: cooperative stop, every node's CSV, exit 0.
  ::kill(pid, SIGINT);
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << "hpas-sim died by a signal\n" << log();
  EXPECT_EQ(WEXITSTATUS(status), 0) << log();
  const std::string out = log();
  EXPECT_NE(out.find("interrupted at t="), std::string::npos) << out;

  // "..., N nodes -> run.node*.csv": one non-empty CSV per node.
  const std::size_t at = out.find(" nodes -> ");
  ASSERT_NE(at, std::string::npos) << out;
  const std::size_t comma = out.rfind(", ", at);
  ASSERT_NE(comma, std::string::npos) << out;
  const std::size_t nodes = std::stoul(out.substr(comma + 2, at - comma - 2));
  EXPECT_GT(nodes, 0u) << out;
  std::size_t csvs = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("run.node", 0) != 0 || entry.path().extension() != ".csv")
      continue;
    ++csvs;
    EXPECT_GT(fs::file_size(entry.path()), 0u) << name;
  }
  EXPECT_EQ(csvs, nodes) << out;
}

TEST_F(HpasSimCliTest, UnknownPresetExitsTwoAndWritesNothing) {
  ASSERT_EQ(run({"--preset", "bogus", "--duration", "60s", "-o", "b"}), 2)
      << log();
  EXPECT_TRUE(digests().empty()) << table(digests());
}

}  // namespace
