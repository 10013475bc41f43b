// The crash-consistency torture battery and server-hardening tests.
//
// The centerpiece enumerates EVERY crash point in the journal/cache write
// sequence (two per write, one per fsync/rename, directory fsyncs
// included), forks a child that runs
// the same campaign and dies at exactly that point, restarts the server
// on the surviving bytes, and asserts the result frames are byte-identical
// to an uncrashed reference -- with zero re-execution for entries whose
// journal records survived. Around it: the scrubber quarantining corrupt
// spool bytes, LRU eviction under a spool cap, the per-connection
// deadline dropping stalled peers but not idle ones, the degraded serve
// path when the cache cannot persist, and the live-vs-stale socket probe.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "faultline/faultline.hpp"
#include "runner/grid.hpp"
#include "runner/journal.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

namespace fl = hpas::faultline;
using hpas::ConfigError;
using hpas::Json;
using hpas::runner::ScenarioSpec;
using hpas::server::Client;
using hpas::server::Server;
using hpas::server::ServerOptions;

ScenarioSpec quick_spec(const std::string& name, std::uint64_t seed) {
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

Json submit_request(std::uint64_t id, const ScenarioSpec& spec) {
  Json request = Json::object();
  request.set("op", "submit");
  request.set("id", Json(id));
  request.set("spec", hpas::runner::spec_to_json(spec));
  return request;
}

/// Raw frame-level connection: byte-identity assertions compare unparsed
/// payloads, so serialization differences cannot hide.
class RawConn {
 public:
  explicit RawConn(const std::string& path)
      : fd_(hpas::server::connect_unix(path)) {}
  ~RawConn() { ::close(fd_); }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send(const Json& request) { hpas::server::write_json(fd_, request); }
  int fd() const { return fd_; }

  std::string recv_payload() {
    std::string payload;
    if (!hpas::server::read_frame(fd_, payload))
      throw std::runtime_error("server closed unexpectedly");
    return payload;
  }

 private:
  int fd_;
};

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fl::disarm();
    base_ = std::filesystem::temp_directory_path() /
            ("hpas-chaos-" + std::string(::testing::UnitTest::GetInstance()
                                             ->current_test_info()
                                             ->name()));
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override {
    fl::disarm();
    std::filesystem::remove_all(base_);
  }

  ServerOptions options_for(const std::string& dir) const {
    ServerOptions opts;
    opts.data_dir = dir + "/data";
    opts.socket_path = dir + "/hpas.sock";
    opts.threads = 1;  // one worker: the I/O call sequence is deterministic
    return opts;
  }
  ServerOptions options() const { return options_for(base_.string()); }

  /// Start a server on `dir`, submit every spec sequentially, return the
  /// raw result-frame payloads. The deterministic campaign that the
  /// crash-point probe, the crashing children, and the reference run all
  /// share -- they must see the same wrapper-call sequence.
  std::vector<std::string> run_campaign(
      const std::string& dir, const std::vector<ScenarioSpec>& specs) {
    const ServerOptions opts = options_for(dir);
    Server server(opts);
    server.start();
    std::vector<std::string> frames;
    {
      RawConn conn(opts.socket_path);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        conn.send(submit_request(i + 1, specs[i]));
        (void)conn.recv_payload();  // accepted
        frames.push_back(conn.recv_payload());
      }
    }
    server.stop();
    return frames;
  }

  std::filesystem::path base_;
};

TEST_F(ChaosTest, ExhaustiveCrashPointBatteryRestartsByteIdentically) {
  const std::vector<ScenarioSpec> specs = {quick_spec("t0", 30),
                                           quick_spec("t1", 31)};

  // Reference pass: the uncrashed result-frame bytes.
  const std::vector<std::string> want =
      run_campaign((base_ / "ref").string(), specs);
  for (const std::string& frame : want)
    ASSERT_NE(frame.find("\"status\":\"done\""), std::string::npos) << frame;

  // Probe pass: arm a schedule whose crash never fires and count how
  // many crash points the campaign walks through. That count defines the
  // exhaustive enumeration below.
  fl::arm(fl::FaultSchedule{});
  (void)run_campaign((base_ / "probe").string(), specs);
  const std::uint64_t points = fl::crash_points_passed();
  fl::disarm();
  // Journal header (write + fsync + directory fsync = 4) plus, per
  // scenario, the spool write/fsync/rename/directory fsync (5) and the
  // journal record write/fsync (3): 8 each.
  ASSERT_EQ(points, 20u);

  for (std::uint64_t k = 0; k < points; ++k) {
    const std::string dir = (base_ / ("crash" + std::to_string(k))).string();
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: the same campaign, dying at exactly crash point k -- as
      // if SIGKILLed mid-write (or with a torn half-written buffer).
      fl::FaultSchedule schedule;
      schedule.crash_at = static_cast<std::int64_t>(k);
      fl::arm(schedule);
      try {
        (void)run_campaign(dir, specs);
      } catch (...) {
      }
      ::_exit(0);  // unreachable for k < points
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "crash point " << k;
    ASSERT_EQ(WEXITSTATUS(status), 137) << "crash point " << k;

    // Restart, unarmed, on whatever bytes survived the crash. Every
    // journaled entry must serve byte-identically with no engine work;
    // everything else re-runs deterministically to the same bytes.
    const ServerOptions opts = options_for(dir);
    Server server(opts);
    server.start();
    const std::size_t restored = server.stats().restored;
    {
      RawConn conn(opts.socket_path);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        conn.send(submit_request(i + 1, specs[i]));
        (void)conn.recv_payload();  // accepted
        EXPECT_EQ(conn.recv_payload(), want[i])
            << "crash point " << k << ", spec " << i;
      }
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.cache_hits, restored) << "crash point " << k;
    EXPECT_EQ(stats.executed, specs.size() - restored)
        << "crash point " << k;
    server.stop();
  }

  // The battery's stop condition: a run armed one past the last point
  // outlives the whole write sequence and exits normally.
  const pid_t survivor = ::fork();
  ASSERT_GE(survivor, 0);
  if (survivor == 0) {
    fl::FaultSchedule schedule;
    schedule.crash_at = static_cast<std::int64_t>(points);
    fl::arm(schedule);
    try {
      (void)run_campaign((base_ / "past-the-end").string(), specs);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(survivor, &status, 0), survivor);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ChaosTest, ScrubberQuarantinesCorruptionAndReRunRecaches) {
  ServerOptions opts = options();
  opts.scrub_interval_s = 0.02;
  const ScenarioSpec spec = quick_spec("scrubbed", 77);

  Server server(opts);
  server.start();

  std::string want;
  {
    RawConn conn(opts.socket_path);
    conn.send(submit_request(1, spec));
    (void)conn.recv_payload();
    want = conn.recv_payload();
    ASSERT_NE(want.find("\"status\":\"done\""), std::string::npos) << want;
  }

  // Bit-rot the spool file behind the running server's back.
  const std::string spool_dir = opts.data_dir + "/spool";
  std::string victim;
  for (const auto& entry : std::filesystem::directory_iterator(spool_dir))
    victim = entry.path().string();
  ASSERT_FALSE(victim.empty());
  {
    std::fstream file(victim, std::ios::in | std::ios::out |
                                  std::ios::binary);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(0);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }

  // The next scrub pass must CRC-catch it, quarantine the evidence, and
  // drop the entry.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().quarantined == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto stats = server.stats();
  ASSERT_EQ(stats.quarantined, 1u);
  EXPECT_GE(stats.scrub_passes, 1u);
  EXPECT_EQ(stats.cache_size, 0u);

  std::size_t quarantined_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           opts.data_dir + "/quarantine")) {
    (void)entry;
    ++quarantined_files;
  }
  EXPECT_EQ(quarantined_files, 1u);

  // Resubmission re-runs (no cache hit off bad bytes -- ever) and the
  // deterministic engine reproduces the original frame exactly.
  {
    RawConn conn(opts.socket_path);
    conn.send(submit_request(1, spec));
    const std::string ack = conn.recv_payload();
    EXPECT_NE(ack.find("\"cached\":false"), std::string::npos) << ack;
    EXPECT_EQ(conn.recv_payload(), want);
  }
  stats = server.stats();
  EXPECT_EQ(stats.executed, 2u);
  EXPECT_EQ(stats.cache_size, 1u);
  server.stop();

  // The re-cached entry survives a restart like any other.
  Server restarted(options_for(base_.string()));
  restarted.start();
  EXPECT_EQ(restarted.stats().restored, 1u);
  restarted.stop();
}

TEST_F(ChaosTest, SpoolCapEvictsLeastRecentlyServedByteIdentically) {
  const std::vector<ScenarioSpec> specs = {quick_spec("lru-a", 40),
                                           quick_spec("lru-b", 41),
                                           quick_spec("lru-c", 42)};

  // Size one cached result so the cap can be cut to hold exactly two.
  std::uint64_t one = 0;
  {
    Server sizing(options_for((base_ / "sizing").string()));
    sizing.start();
    RawConn conn(options_for((base_ / "sizing").string()).socket_path);
    conn.send(submit_request(1, specs[0]));
    (void)conn.recv_payload();
    (void)conn.recv_payload();
    one = sizing.stats().spool_bytes;
    sizing.stop();
  }
  ASSERT_GT(one, 0u);

  ServerOptions opts = options();
  opts.spool_cap_bytes = 2 * one + one / 2;
  Server server(opts);
  server.start();
  RawConn conn(opts.socket_path);

  std::vector<std::string> want;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    conn.send(submit_request(i + 1, specs[i]));
    (void)conn.recv_payload();
    want.push_back(conn.recv_payload());
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.evicted, 1u);  // lru-a, the least recently served
  EXPECT_EQ(stats.cache_size, 2u);
  EXPECT_LE(stats.spool_bytes, opts.spool_cap_bytes);

  // Survivors hit byte-identically...
  conn.send(submit_request(3, specs[2]));
  std::string ack = conn.recv_payload();
  EXPECT_NE(ack.find("\"cached\":true"), std::string::npos) << ack;
  EXPECT_EQ(conn.recv_payload(), want[2]);

  // ...and the evicted entry simply re-runs to the same bytes.
  conn.send(submit_request(1, specs[0]));
  ack = conn.recv_payload();
  EXPECT_NE(ack.find("\"cached\":false"), std::string::npos) << ack;
  EXPECT_EQ(conn.recv_payload(), want[0]);

  stats = server.stats();
  EXPECT_EQ(stats.executed, 4u);
  EXPECT_LE(stats.spool_bytes, opts.spool_cap_bytes);
  server.stop();

  // The journal was rewritten at each eviction: a restart restores
  // exactly the capped survivor set.
  Server restarted(opts);
  restarted.start();
  EXPECT_EQ(restarted.stats().restored, 2u);
  restarted.stop();
}

TEST_F(ChaosTest, CacheInsertFailureStillServesTheResult) {
  const ScenarioSpec spec = quick_spec("degraded", 55);
  const std::vector<std::string> want =
      run_campaign((base_ / "ref").string(), {spec});

  // Every spool write fails ENOSPC: the result cannot be persisted, but
  // the waiter still gets the full, byte-identical frame.
  fl::FaultSchedule schedule;
  schedule.rules.push_back({.domain = fl::Domain::kCache,
                            .op = fl::Op::kWrite,
                            .kind = fl::FaultKind::kErrno,
                            .err = ENOSPC,
                            .every = 1});
  fl::arm(schedule);
  const ServerOptions opts = options_for((base_ / "enospc").string());
  Server server(opts);
  server.start();
  {
    RawConn conn(opts.socket_path);
    conn.send(submit_request(1, spec));
    (void)conn.recv_payload();
    EXPECT_EQ(conn.recv_payload(), want[0]);
  }
  auto stats = server.stats();
  EXPECT_EQ(stats.insert_errors, 1u);
  EXPECT_EQ(stats.cache_size, 0u);  // nothing durable, nothing cached
  server.stop();
  fl::disarm();

  // Same discipline when the journal append is what fails.
  fl::FaultSchedule journal_fault;
  journal_fault.rules.push_back({.domain = fl::Domain::kJournal,
                                 .op = fl::Op::kWrite,
                                 .kind = fl::FaultKind::kErrno,
                                 .err = EIO,
                                 .at = 1});  // the record after the header
  fl::arm(journal_fault);
  const ServerOptions jopts = options_for((base_ / "eio").string());
  Server jserver(jopts);
  jserver.start();
  {
    RawConn conn(jopts.socket_path);
    conn.send(submit_request(1, spec));
    (void)conn.recv_payload();
    EXPECT_EQ(conn.recv_payload(), want[0]);
  }
  EXPECT_EQ(jserver.stats().insert_errors, 1u);
  jserver.stop();
}

TEST_F(ChaosTest, StalledPeerIsDroppedIdlePeerSurvives) {
  ServerOptions opts = options();
  opts.io_timeout_s = 0.1;
  Server server(opts);
  server.start();

  // The idle client connects first and says nothing for several deadline
  // periods -- legitimate, must survive.
  Client idle = Client::connect(opts.socket_path);

  // The slowloris sends half a length prefix and stalls mid-frame.
  const int stalled = hpas::server::connect_unix(opts.socket_path);
  const unsigned char half_header[2] = {0x20, 0x00};
  ASSERT_EQ(::send(stalled, half_header, 2, MSG_NOSIGNAL), 2);

  // The server must cut the stalled connection: EOF on our end.
  pollfd pfd = {stalled, POLLIN, 0};
  ASSERT_GT(::poll(&pfd, 1, 5000), 0) << "stalled peer was never dropped";
  char byte = 0;
  EXPECT_EQ(::recv(stalled, &byte, 1, 0), 0);
  ::close(stalled);

  // The idle client, silent through all of it, still gets service.
  idle.ping();
  Json pong;
  ASSERT_TRUE(idle.recv(pong));
  EXPECT_EQ(pong.string_or("type", ""), "pong");
  // And real work still flows end to end on that connection.
  idle.submit(1, quick_spec("after-stall", 60));
  EXPECT_EQ(idle.wait_result(1).string_or("status", ""), "done");
  server.stop();
}

TEST_F(ChaosTest, LiveSocketRefusedStaleSocketReclaimed) {
  ServerOptions opts = options();
  Server live(opts);
  live.start();

  // A second daemon pointed at the same socket (its own data dir) must
  // refuse loudly instead of yanking the live one's listener.
  ServerOptions other = options_for((base_ / "other").string());
  other.socket_path = opts.socket_path;
  Server intruder(other);
  EXPECT_THROW(intruder.start(), ConfigError);

  // The live daemon is unharmed by the probe.
  {
    Client client = Client::connect(opts.socket_path);
    client.ping();
    Json pong;
    ASSERT_TRUE(client.recv(pong));
    EXPECT_EQ(pong.string_or("type", ""), "pong");
  }
  live.stop();

  // SIGKILL leftovers: a bound-then-abandoned socket file. The probe
  // sees nobody answering and the next daemon reclaims the path.
  const int stale = hpas::server::listen_unix(opts.socket_path);
  ::close(stale);
  ASSERT_TRUE(std::filesystem::exists(opts.socket_path));
  Server reclaimed(opts);
  reclaimed.start();
  {
    Client client = Client::connect(opts.socket_path);
    client.ping();
    Json pong;
    ASSERT_TRUE(client.recv(pong));
    EXPECT_EQ(pong.string_or("type", ""), "pong");
  }
  reclaimed.stop();
}

}  // namespace
