// The experiment server battery: content-addressed cache hits do zero
// engine work, concurrent duplicate submissions coalesce onto one run,
// admission control answers `busy` instead of buffering, drain refuses
// new work, and a SIGKILLed daemon restarted on the same data directory
// serves its journaled results byte-identically.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "runner/grid.hpp"
#include "runner/journal.hpp"
#include "server/client.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"

namespace {

using hpas::Json;
using hpas::runner::read_journal;
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

/// Raw frame-level connection: the byte-identity assertions compare
/// unparsed payloads, so serialization differences cannot hide.
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

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("hpas-server-" + std::string(::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name()));
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  ServerOptions options() const {
    ServerOptions opts;
    opts.data_dir = (base_ / "data").string();
    opts.socket_path = (base_ / "hpas.sock").string();
    opts.threads = 2;
    return opts;
  }

  std::filesystem::path base_;
};

TEST_F(ServerTest, RepeatSubmissionIsByteIdenticalCacheHitWithNoRerun) {
  Server server(options());
  server.start();
  const ScenarioSpec spec = quick_spec("repeat", 42);

  RawConn conn(options().socket_path);
  conn.send(submit_request(7, spec));
  const std::string first_ack = conn.recv_payload();
  const std::string first_result = conn.recv_payload();
  EXPECT_NE(first_ack.find("\"cached\":false"), std::string::npos)
      << first_ack;
  EXPECT_NE(first_result.find("\"status\":\"done\""), std::string::npos)
      << first_result;

  // Same spec, same id: the ack flips to cached, the result frame must
  // be the exact same bytes, and the engine must not run again.
  conn.send(submit_request(7, spec));
  const std::string second_ack = conn.recv_payload();
  const std::string second_result = conn.recv_payload();
  EXPECT_NE(second_ack.find("\"cached\":true"), std::string::npos)
      << second_ack;
  EXPECT_EQ(first_result, second_result);

  const auto stats = server.stats();
  EXPECT_EQ(stats.submissions, 2u);
  EXPECT_EQ(stats.executed, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);

  server.stop();
  // The journal -- the daemon's evaluation ledger -- has exactly one
  // record: the cache hit did zero engine work.
  EXPECT_EQ(read_journal(options().data_dir + "/server.journal")
                .records.size(),
            1u);
}

TEST_F(ServerTest, ConcurrentClientsWithDuplicatesRunEachScenarioOnce) {
  Server server(options());
  server.start();

  // 4 clients x the same 3 scenarios, racing: coalescing and the cache
  // must reduce 12 submissions to exactly 3 engine runs.
  const std::vector<ScenarioSpec> specs = {
      quick_spec("a", 1), quick_spec("b", 2), quick_spec("c", 3)};
  std::vector<std::thread> clients;
  std::vector<int> failures(4, 0);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Client client = Client::connect(options().socket_path);
      for (std::size_t i = 0; i < specs.size(); ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * 100 + i + 1;
        client.submit(id, specs[i]);
        const Json result = client.wait_result(id);
        if (result.string_or("type", "") != "result" ||
            result.string_or("status", "") != "done")
          ++failures[static_cast<std::size_t>(c)];
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);

  const auto stats = server.stats();
  EXPECT_EQ(stats.submissions, 12u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 9u);

  server.stop();
  EXPECT_EQ(read_journal(options().data_dir + "/server.journal")
                .records.size(),
            3u);
}

TEST_F(ServerTest, TinyAdmissionQueueAnswersBusyNotBuffering) {
  std::mutex mu;
  std::condition_variable cv;
  bool entered = false;
  bool release = false;

  ServerOptions opts = options();
  opts.threads = 1;
  opts.admission_capacity = 1;
  opts.before_run = [&](const ScenarioSpec&) {
    std::unique_lock<std::mutex> lock(mu);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  Server server(opts);
  server.start();

  Client client = Client::connect(opts.socket_path);
  const ScenarioSpec held = quick_spec("held", 1);
  client.submit(1, held);
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered; });
  }

  // The one admission slot is occupied: a distinct scenario bounces
  // with an explicit busy frame...
  client.submit(2, quick_spec("bounced", 2));
  Json busy = client.wait_result(2);
  EXPECT_EQ(busy.string_or("type", ""), "busy");

  // ...but a duplicate of the held scenario coalesces (no slot needed).
  // Wait for its ack -- sent only after the waiter is attached -- before
  // releasing the held run, so the duplicate cannot race into a cache
  // hit instead.
  Client other = Client::connect(opts.socket_path);
  other.submit(3, held);
  Json dup_ack;
  ASSERT_TRUE(other.recv(dup_ack));
  EXPECT_EQ(dup_ack.string_or("type", ""), "accepted");
  EXPECT_FALSE(dup_ack.bool_or("cached", true));

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  EXPECT_EQ(client.wait_result(1).string_or("status", ""), "done");
  EXPECT_EQ(other.wait_result(3).string_or("status", ""), "done");

  // With the slot free the bounced scenario is admitted normally.
  client.submit(4, quick_spec("bounced", 2));
  EXPECT_EQ(client.wait_result(4).string_or("status", ""), "done");

  const auto stats = server.stats();
  EXPECT_EQ(stats.busy_rejected, 1u);
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.executed, 2u);
  server.stop();
}

TEST_F(ServerTest, DrainServesCacheButRefusesNewWork) {
  Server server(options());
  server.start();

  Client client = Client::connect(options().socket_path);
  const ScenarioSpec spec = quick_spec("cached", 5);
  client.submit(1, spec);
  ASSERT_EQ(client.wait_result(1).string_or("status", ""), "done");

  server.request_drain();
  // Cached results stay available during the drain window...
  client.submit(2, spec);
  EXPECT_EQ(client.wait_result(2).string_or("status", ""), "done");
  // ...but anything needing the engine is refused, not queued.
  client.submit(3, quick_spec("fresh", 6));
  EXPECT_EQ(client.wait_result(3).string_or("type", ""), "draining");

  server.wait();
  EXPECT_FALSE(std::filesystem::exists(options().socket_path));
}

TEST_F(ServerTest, MalformedRequestsGetErrorFramesNotDisconnects) {
  Server server(options());
  server.start();
  RawConn conn(options().socket_path);

  // Unparsable payload: an error frame, and the connection survives.
  hpas::server::write_frame(conn.fd(), "this is not json");
  EXPECT_NE(conn.recv_payload().find("\"type\":\"error\""),
            std::string::npos);

  // Unknown op: error frame naming it.
  Json bad_op = Json::object();
  bad_op.set("op", "frobnicate");
  bad_op.set("id", 9);
  conn.send(bad_op);
  const std::string unknown = conn.recv_payload();
  EXPECT_NE(unknown.find("unknown op"), std::string::npos) << unknown;

  // Submit without a spec: error frame carrying the submission's id.
  Json no_spec = Json::object();
  no_spec.set("op", "submit");
  no_spec.set("id", 4);
  conn.send(no_spec);
  const std::string missing = conn.recv_payload();
  EXPECT_NE(missing.find("\"id\":4"), std::string::npos) << missing;
  EXPECT_NE(missing.find("missing \\\"spec\\\""), std::string::npos)
      << missing;

  // The connection still works for real traffic afterwards.
  Json ping = Json::object();
  ping.set("op", "ping");
  ping.set("id", 5);
  conn.send(ping);
  EXPECT_NE(conn.recv_payload().find("\"type\":\"pong\""),
            std::string::npos);
  server.stop();
}

TEST_F(ServerTest, InvalidWireSpecsGetErrorFramesAndTheDaemonKeepsServing) {
  Server server(options());
  server.start();
  RawConn conn(options().socket_path);

  // An app on zero nodes would reach the runner's node-stride division;
  // validation refuses it at the wire, as it does an unknown system.
  ScenarioSpec zero_nodes = quick_spec("zero-nodes", 1);
  zero_nodes.app = "CoMD";
  zero_nodes.app_nodes = 0;
  conn.send(submit_request(11, zero_nodes));
  const std::string zero = conn.recv_payload();
  EXPECT_NE(zero.find("\"type\":\"error\""), std::string::npos) << zero;
  EXPECT_NE(zero.find("\"id\":11"), std::string::npos) << zero;
  EXPECT_NE(zero.find("app_nodes"), std::string::npos) << zero;

  ScenarioSpec bogus = quick_spec("bogus-system", 2);
  bogus.system = "bogus";
  conn.send(submit_request(12, bogus));
  const std::string unknown = conn.recv_payload();
  EXPECT_NE(unknown.find("\"type\":\"error\""), std::string::npos)
      << unknown;
  EXPECT_NE(unknown.find("unknown system 'bogus'"), std::string::npos)
      << unknown;

  // Neither reached the engine, and real work still runs -- on this
  // connection and on a new one.
  conn.send(submit_request(13, quick_spec("valid", 3)));
  EXPECT_NE(conn.recv_payload().find("\"accepted\""), std::string::npos);
  const std::string result = conn.recv_payload();
  EXPECT_NE(result.find("\"status\":\"done\""), std::string::npos)
      << result;
  RawConn second(options().socket_path);
  Json ping = Json::object();
  ping.set("op", "ping");
  ping.set("id", 14);
  second.send(ping);
  EXPECT_NE(second.recv_payload().find("\"type\":\"pong\""),
            std::string::npos);
  EXPECT_EQ(server.stats().submissions, 1u);
  EXPECT_EQ(server.stats().executed, 1u);
  server.stop();
}

TEST_F(ServerTest, KilledDaemonRestartsAndServesJournaledResultsByteIdentically) {
  const ServerOptions opts = options();
  const std::vector<ScenarioSpec> specs = {quick_spec("k0", 10),
                                           quick_spec("k1", 11)};

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Daemon process: serve until SIGKILL. Nothing here may return to
    // the test harness.
    try {
      Server daemon(opts);
      daemon.start();
      while (true) std::this_thread::sleep_for(std::chrono::seconds(3600));
    } catch (...) {
      _exit(17);
    }
  }

  // Wait for the daemon's socket, then run the pre-kill campaign,
  // recording the exact result payload bytes.
  std::vector<std::string> pre_kill;
  {
    std::unique_ptr<RawConn> conn;
    for (int i = 0; i < 500 && !conn; ++i) {
      try {
        conn = std::make_unique<RawConn>(opts.socket_path);
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    ASSERT_NE(conn, nullptr) << "daemon never came up";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      conn->send(submit_request(i + 1, specs[i]));
      (void)conn->recv_payload();  // accepted
      pre_kill.push_back(conn->recv_payload());
      EXPECT_NE(pre_kill.back().find("\"status\":\"done\""),
                std::string::npos)
          << pre_kill.back();
    }
  }

  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Restart on the same data directory: the cache is rebuilt from the
  // journal and the same submissions are served byte-identically with
  // zero engine work.
  Server restarted(opts);
  restarted.start();
  EXPECT_EQ(restarted.stats().restored, specs.size());
  {
    RawConn conn(opts.socket_path);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      conn.send(submit_request(i + 1, specs[i]));
      const std::string ack = conn.recv_payload();
      EXPECT_NE(ack.find("\"cached\":true"), std::string::npos) << ack;
      EXPECT_EQ(conn.recv_payload(), pre_kill[i]);
    }
  }
  const auto stats = restarted.stats();
  EXPECT_EQ(stats.executed, 0u);
  EXPECT_EQ(stats.cache_hits, specs.size());
  restarted.stop();
}

}  // namespace
