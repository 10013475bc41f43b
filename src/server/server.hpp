// The experiment server: a durable anomaly-experiment daemon.
//
// `hpas serve` turns the runner into a long-running service. Clients
// connect over a Unix-domain socket (optionally a localhost TCP port),
// submit fully-resolved ScenarioSpecs as length-prefixed JSON frames
// (protocol.hpp), and receive an `accepted` acknowledgement followed --
// possibly much later -- by a `result` frame. Three mechanisms shape the
// service guarantees:
//
//   Content-addressed cache. Every submission is keyed by the journal's
//   splitmix64 scenario hash; a key the daemon has already finished is
//   served straight from the ResultCache (disk-durable, journal-backed)
//   with zero engine work. Concurrent duplicate submissions coalesce
//   onto one in-flight execution -- each waiter gets its own result
//   frame, the engine runs once.
//
//   Admission control + fairness. At most `admission_capacity` distinct
//   scenarios may be outstanding (queued or running); past that a
//   submission is answered with an explicit `busy` frame instead of
//   being buffered, so backpressure is visible to clients rather than
//   hidden in unbounded queues. Admitted work is dispatched to the
//   work-stealing pool by a scheduler thread that round-robins across
//   clients, so one client streaming a huge campaign cannot starve
//   another's single probe.
//
//   Durability. Finished scenarios are journaled (spool CSV first, then
//   the fsync'd record -- see cache.hpp) before the result frame is
//   sent. A SIGKILLed daemon restarted on the same --data directory
//   rebuilds its cache from the journal and serves previously computed
//   results byte-identically to the pre-crash responses.
//
// Shutdown follows the two-signal contract: request_drain() (first
// SIGINT/SIGTERM) stops admitting and lets the admitted work finish and
// journal; request_hard() (second signal) additionally cancels running
// scenarios cooperatively. Both are nonblocking and safe from the
// ShutdownController's watcher thread; wait() does the blocking part.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/cancel.hpp"
#include "common/json.hpp"
#include "runner/grid.hpp"
#include "runner/thread_pool.hpp"
#include "server/cache.hpp"

namespace hpas::server {

struct ServerOptions {
  std::string socket_path;  ///< Unix listener; empty disables
  /// Localhost TCP listener: -1 disables, 0 binds an ephemeral port
  /// (query with Server::tcp_port() after start()).
  int tcp_port = -1;
  std::string data_dir;     ///< journal + spool location (required)
  int threads = 1;          ///< worker pool size; 0 = hardware concurrency
  /// Bound on outstanding (queued + running) distinct scenarios; beyond
  /// it submissions get `busy`. Cache hits and coalesced duplicates do
  /// not consume admission slots -- they do no engine work.
  std::size_t admission_capacity = 64;
  /// Per-connection I/O deadline in seconds; 0 disables. A peer stalled
  /// mid-frame (slowloris) or not draining its responses is disconnected
  /// after this long. Idle clients at a frame boundary are unaffected.
  double io_timeout_s = 0.0;
  /// Result-spool size cap in bytes; 0 = unbounded. Past it the cache
  /// evicts least-recently-served entries (they re-run on demand).
  std::uint64_t spool_cap_bytes = 0;
  /// Scrubber period in seconds; 0 disables. Each pass CRC-verifies the
  /// spool against the journal and quarantines corrupt entries.
  double scrub_interval_s = 0.0;
  /// Test hook, called on the worker thread immediately before a
  /// scenario's engine run (not for cache hits). Lets tests hold the
  /// pipeline at a known point to probe admission behaviour.
  std::function<void(const runner::ScenarioSpec&)> before_run;
};

/// Monotonic counters, readable while the server runs (status op).
struct ServerStats {
  std::uint64_t submissions = 0;   ///< well-formed submit requests
  std::uint64_t cache_hits = 0;    ///< served from the durable cache
  std::uint64_t coalesced = 0;     ///< attached to an in-flight run
  std::uint64_t executed = 0;      ///< engine runs finished this process
  std::uint64_t busy_rejected = 0; ///< bounced by admission control
  std::uint64_t insert_errors = 0; ///< results served but not journaled
  std::uint64_t scrub_passes = 0;  ///< completed scrubber sweeps
  std::size_t cache_size = 0;      ///< entries (restored + inserted)
  std::size_t restored = 0;        ///< entries rebuilt from the journal
  std::size_t evicted = 0;         ///< entries dropped by the spool cap
  std::size_t quarantined = 0;     ///< corrupt entries moved aside
  std::uint64_t spool_bytes = 0;   ///< current on-disk result footprint
  std::size_t outstanding = 0;     ///< admitted, not yet completed
  bool draining = false;
};

/// Bounded retry delay (ms) for an accept() failure, or 0 when the errno
/// is not transient fd/buffer exhaustion. EMFILE/ENFILE mean the process
/// (or host) is out of descriptors: accept() will keep failing while the
/// listener stays readable, so without this delay the accept loop spins
/// at 100% CPU exactly when the machine is at its sickest.
int accept_backoff_ms(int err);

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  ///< hard-stops and joins if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the cache (replaying the journal), binds the listeners, and
  /// starts the accept/scheduler/pool threads. Throws on bind failure or
  /// an unreadable data dir.
  void start();

  /// First-signal shutdown: stop admitting (new submissions answer
  /// `draining`), let admitted scenarios finish and journal. Nonblocking.
  void request_drain();

  /// Second-signal shutdown: drain + cancel running scenarios
  /// cooperatively (they are not cached). Nonblocking.
  void request_hard();

  /// Blocks until a requested drain completes, then tears the service
  /// down (listeners, client connections, threads). Returns the number
  /// of scenarios executed by this process.
  std::uint64_t wait();

  /// Convenience for tests: request_drain() + wait().
  std::uint64_t stop();

  ServerStats stats() const;
  /// Bound TCP port; -1 when the TCP listener is disabled.
  int tcp_port() const { return tcp_port_; }

 private:
  struct ClientConn;
  struct Inflight;  ///< one admitted scenario and its waiting clients

  void accept_loop();
  void scheduler_loop();
  void scrub_loop();
  void reader_loop(const std::shared_ptr<ClientConn>& conn);
  void handle_submit(const std::shared_ptr<ClientConn>& conn,
                     const Json& request);
  void run_admitted(std::uint64_t key);
  void send_to(const std::shared_ptr<ClientConn>& conn, const Json& frame);
  /// send_to without taking write_mu; caller must already hold it.
  void send_locked(const std::shared_ptr<ClientConn>& conn, const Json& frame);
  Json result_frame(const CachedResult& entry, std::uint64_t id) const;
  Json stats_json() const;

  ServerOptions options_;
  ResultCache cache_;
  std::unique_ptr<runner::WorkStealingPool> pool_;

  int unix_listener_ = -1;
  int tcp_listener_ = -1;
  int tcp_port_ = -1;
  int stop_pipe_[2] = {-1, -1};  ///< wakes the accept loop's poll()

  std::thread accept_thread_;
  std::thread scheduler_thread_;
  std::thread scrub_thread_;

  mutable std::mutex mu_;
  std::condition_variable sched_cv_;  ///< pending work or stop
  std::condition_variable idle_cv_;   ///< outstanding_ hit zero
  std::condition_variable scrub_cv_;  ///< wakes the scrubber early on stop
  std::vector<std::shared_ptr<ClientConn>> clients_;
  std::size_t rr_next_ = 0;  ///< round-robin cursor over clients_
  std::unordered_map<std::uint64_t, Inflight> inflight_;
  std::size_t outstanding_ = 0;
  bool draining_ = false;
  bool stopping_ = false;  ///< scheduler/readers must exit
  bool started_ = false;
  CancelToken hard_cancel_;

  ServerStats counters_;  ///< monotonic members only, guarded by mu_
};

}  // namespace hpas::server
