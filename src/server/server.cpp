#include "server/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "server/protocol.hpp"

namespace hpas::server {
namespace {

std::string hex16(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Json make_ack(const char* type, std::uint64_t id) {
  Json frame = Json::object();
  frame.set("type", type);
  frame.set("id", Json(id));
  return frame;
}

}  // namespace

int accept_backoff_ms(int err) {
  switch (err) {
    case EMFILE:   // this process is out of descriptors
    case ENFILE:   // the whole host is out of descriptors
    case ENOBUFS:  // transient kernel buffer exhaustion
    case ENOMEM:
      return 50;
    default:
      return 0;  // ECONNABORTED, EINTR, ...: retry immediately
  }
}

/// One connected client. The fd is owned here (closed at destruction);
/// `closed` and writes are serialized by `write_mu`, while the admitted
/// `queue` (scenario keys awaiting dispatch) belongs to Server::mu_ like
/// the rest of the scheduling state.
struct Server::ClientConn {
  int fd = -1;
  std::thread reader;
  std::mutex write_mu;
  bool closed = false;
  std::deque<std::uint64_t> queue;

  ~ClientConn() {
    if (fd >= 0) ::close(fd);
  }
};

/// One admitted scenario: the spec to run plus every (client, request id)
/// waiting on it. Duplicate submissions racing the execution attach here
/// instead of being re-admitted -- the coalescing that makes "same key,
/// zero extra engine work" hold even under concurrency.
struct Server::Inflight {
  runner::ScenarioSpec spec;
  std::vector<std::pair<std::shared_ptr<ClientConn>, std::uint64_t>> waiters;
};

Server::Server(ServerOptions options)
    : options_(std::move(options)), cache_(options_.data_dir) {}

Server::~Server() {
  if (started_) {
    request_hard();
    wait();
  }
}

void Server::start() {
  require(!started_, "Server::start called twice");
  if (options_.data_dir.empty())
    throw ConfigError("serve: --data directory is required");
  if (options_.socket_path.empty() && options_.tcp_port < 0)
    throw ConfigError("serve: need --socket and/or --tcp to listen on");
  if (options_.admission_capacity == 0)
    throw ConfigError("serve: admission capacity must be positive");

  cache_.set_spool_cap_bytes(options_.spool_cap_bytes);
  cache_.open();

  runner::PoolOptions pool_opts;
  pool_opts.threads = options_.threads;
  if (pool_opts.queue_capacity < options_.admission_capacity)
    pool_opts.queue_capacity = options_.admission_capacity;
  pool_ = std::make_unique<runner::WorkStealingPool>(pool_opts);

  if (!options_.socket_path.empty())
    unix_listener_ = listen_unix(options_.socket_path);
  if (options_.tcp_port >= 0) {
    tcp_listener_ = listen_tcp_localhost(options_.tcp_port);
    tcp_port_ = local_tcp_port(tcp_listener_);
  }

  if (::pipe(stop_pipe_) != 0) throw SystemError("serve: pipe() failed");
  ::fcntl(stop_pipe_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(stop_pipe_[1], F_SETFD, FD_CLOEXEC);

  accept_thread_ = std::thread([this] { accept_loop(); });
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
  if (options_.scrub_interval_s > 0.0)
    scrub_thread_ = std::thread([this] { scrub_loop(); });
  started_ = true;
}

void Server::request_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  idle_cv_.notify_all();
  sched_cv_.notify_all();
}

void Server::request_hard() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
  // Cancels cooperatively through the token only: every admitted job
  // still flows through run_admitted() (finishing fast as "cancelled"),
  // so admission accounting and waiters unwind normally. Cancelling the
  // pool instead would silently drop queued jobs with their waiters.
  hard_cancel_.cancel(CancelReason::kShutdown);
  idle_cv_.notify_all();
  sched_cv_.notify_all();
}

std::uint64_t Server::wait() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [&] { return draining_ && outstanding_ == 0; });
    stopping_ = true;
    sched_cv_.notify_all();
    scrub_cv_.notify_all();
  }

  // Wake the accept loop's poll(), then tear down in dependency order:
  // no new clients, no new dispatches, then unblock + join the readers.
  const char byte = 0;
  while (::write(stop_pipe_[1], &byte, 1) < 0 && errno == EINTR) {
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  if (scrub_thread_.joinable()) scrub_thread_.join();

  if (unix_listener_ >= 0) {
    ::close(unix_listener_);
    unix_listener_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  if (tcp_listener_ >= 0) {
    ::close(tcp_listener_);
    tcp_listener_ = -1;
  }

  std::vector<std::shared_ptr<ClientConn>> clients;
  {
    std::lock_guard<std::mutex> lock(mu_);
    clients = clients_;
  }
  for (const auto& conn : clients) {
    {
      std::lock_guard<std::mutex> g(conn->write_mu);
      conn->closed = true;
    }
    ::shutdown(conn->fd, SHUT_RDWR);  // blocked readers see EOF
  }
  for (const auto& conn : clients)
    if (conn->reader.joinable()) conn->reader.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    clients_.clear();
  }

  if (pool_) {
    pool_->wait_idle();
    pool_.reset();
  }
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  started_ = false;

  std::lock_guard<std::mutex> lock(mu_);
  return counters_.executed;
}

std::uint64_t Server::stop() {
  request_drain();
  return wait();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s = counters_;
  s.cache_size = cache_.size();
  s.restored = cache_.restored();
  s.evicted = cache_.evicted();
  s.quarantined = cache_.quarantined();
  s.spool_bytes = cache_.spool_bytes();
  s.outstanding = outstanding_;
  s.draining = draining_;
  return s;
}

void Server::accept_loop() {
  // Rate limit for the descriptor-exhaustion warning: the condition can
  // persist for minutes and the backoff retries ~20x/second -- one line
  // every few seconds says everything a log reader needs.
  auto last_backoff_log =
      std::chrono::steady_clock::now() - std::chrono::hours(1);
  while (true) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {stop_pipe_[0], POLLIN, 0};
    const nfds_t first_listener = n;
    if (unix_listener_ >= 0) fds[n++] = {unix_listener_, POLLIN, 0};
    if (tcp_listener_ >= 0) fds[n++] = {tcp_listener_, POLLIN, 0};

    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      return;  // poll on our own fds should not fail; give up quietly
    }
    if (fds[0].revents != 0) return;  // stop requested

    for (nfds_t i = first_listener; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      const int cfd = ::accept(fds[i].fd, nullptr, nullptr);
      if (cfd < 0) {
        // EMFILE/ENFILE leave the listener readable, so without a pause
        // this loop would spin at full speed while the process is out of
        // fds. Sleep on the stop pipe instead of plain sleep so shutdown
        // still interrupts the backoff instantly.
        const int delay_ms = accept_backoff_ms(errno);
        if (delay_ms > 0) {
          const auto now = std::chrono::steady_clock::now();
          if (now - last_backoff_log >= std::chrono::seconds(5)) {
            last_backoff_log = now;
            std::fprintf(stderr,
                         "hpas serve: accept failed (%s); backing off\n",
                         std::strerror(errno));
          }
          pollfd stop_fd = {stop_pipe_[0], POLLIN, 0};
          if (::poll(&stop_fd, 1, delay_ms) > 0) return;
        }
        continue;
      }
      ::fcntl(cfd, F_SETFD, FD_CLOEXEC);
      set_io_deadline(cfd, options_.io_timeout_s);
      auto conn = std::make_shared<ClientConn>();
      conn->fd = cfd;
      {
        std::lock_guard<std::mutex> lock(mu_);
        clients_.push_back(conn);
      }
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
    }
  }
}

void Server::reader_loop(const std::shared_ptr<ClientConn>& conn) {
  Json request;
  while (true) {
    try {
      if (!read_json(conn->fd, request)) break;  // clean close
    } catch (const ConfigError& e) {
      // Framing was intact but the payload is not JSON: answer and keep
      // the connection -- the next frame realigns naturally.
      Json err = make_ack("error", 0);
      err.set("message", std::string("bad request: ") + e.what());
      send_to(conn, err);
      continue;
    } catch (const std::exception&) {
      break;  // torn frame or dead socket
    }

    const std::string op = request.string_or("op", "");
    if (op == "submit") {
      handle_submit(conn, request);
    } else if (op == "ping") {
      send_to(conn, make_ack("pong",
                             static_cast<std::uint64_t>(
                                 request.number_or("id", 0))));
    } else if (op == "status") {
      send_to(conn, stats_json());
    } else {
      Json err = make_ack("error",
                          static_cast<std::uint64_t>(
                              request.number_or("id", 0)));
      err.set("message", "unknown op: " + op);
      send_to(conn, err);
    }
  }
  {
    std::lock_guard<std::mutex> g(conn->write_mu);
    conn->closed = true;
  }
  ::shutdown(conn->fd, SHUT_RDWR);
}

void Server::handle_submit(const std::shared_ptr<ClientConn>& conn,
                           const Json& request) {
  const auto id = static_cast<std::uint64_t>(request.number_or("id", 0));

  runner::ScenarioSpec spec;
  try {
    const Json* spec_doc = request.find("spec");
    if (spec_doc == nullptr) throw ConfigError("submit: missing \"spec\"");
    spec = runner::spec_from_json(*spec_doc);
  } catch (const ConfigError& e) {
    Json err = make_ack("error", id);
    err.set("message", e.what());
    send_to(conn, err);
    return;
  }
  const std::uint64_t key = runner::scenario_key_hash(spec);

  Json ack;
  Json result;
  bool have_result = false;
  // Holding write_mu across waiter registration and the ack write
  // guarantees the client sees "accepted" before its result frame.
  // Registering the waiter makes the result deliverable, and delivery
  // goes through this same mutex -- so without it a fast worker could
  // write the result between the registration (under mu_) and the ack
  // hitting the socket. Lock order is write_mu before mu_; no path
  // acquires write_mu while holding mu_.
  std::lock_guard<std::mutex> wlock(conn->write_mu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.submissions;
    if (const CachedResult* hit = cache_.find(key)) {
      // Cache hits are served even while draining -- they do no work.
      ++counters_.cache_hits;
      ack = make_ack("accepted", id);
      ack.set("cached", true);
      result = result_frame(*hit, id);
      have_result = true;
    } else if (const auto inflight = inflight_.find(key);
               inflight != inflight_.end()) {
      ++counters_.coalesced;
      inflight->second.waiters.emplace_back(conn, id);
      ack = make_ack("accepted", id);
      ack.set("cached", false);
    } else if (draining_) {
      ack = make_ack("draining", id);
    } else if (outstanding_ >= options_.admission_capacity) {
      ++counters_.busy_rejected;
      ack = make_ack("busy", id);
    } else {
      ++outstanding_;
      Inflight entry;
      entry.spec = spec;
      entry.waiters.emplace_back(conn, id);
      inflight_.emplace(key, std::move(entry));
      conn->queue.push_back(key);
      sched_cv_.notify_all();
      ack = make_ack("accepted", id);
      ack.set("cached", false);
    }
  }
  send_locked(conn, ack);
  if (have_result) send_locked(conn, result);
}

void Server::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    std::uint64_t key = 0;
    bool picked = false;
    sched_cv_.wait(lock, [&] {
      if (stopping_) return true;
      for (const auto& conn : clients_)
        if (!conn->queue.empty()) return true;
      return false;
    });
    // stopping_ is only set once draining finished (outstanding_ == 0),
    // so an exit here never strands admitted work.
    if (stopping_) return;

    // Round-robin over clients: each pass dispatches at most one
    // scenario per client before looking at the next, so a client
    // streaming a campaign cannot starve a single interactive probe.
    const std::size_t count = clients_.size();
    for (std::size_t i = 0; i < count && !picked; ++i) {
      const std::size_t idx = (rr_next_ + i) % count;
      auto& queue = clients_[idx]->queue;
      if (queue.empty()) continue;
      key = queue.front();
      queue.pop_front();
      rr_next_ = idx + 1;
      picked = true;
    }
    if (!picked) continue;

    lock.unlock();
    // May block on the pool's bounded queue -- deliberately outside mu_
    // so submissions and completions keep flowing meanwhile.
    pool_->submit([this, key] { run_admitted(key); });
    lock.lock();
  }
}

void Server::scrub_loop() {
  const auto period = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double>(options_.scrub_interval_s));
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Waiting on stopping_ (not draining_) lets a final pass of an
    // armed drain still be interrupted; cache access stays under mu_
    // like every other cache caller.
    if (scrub_cv_.wait_for(lock, period, [&] { return stopping_; })) return;
    const ScrubReport report = cache_.scrub();
    ++counters_.scrub_passes;
    if (report.quarantined > 0)
      std::fprintf(stderr,
                   "hpas serve: scrubber quarantined %zu corrupt spool "
                   "entries (of %zu scanned); they re-run on resubmission\n",
                   report.quarantined, report.scanned);
  }
}

void Server::run_admitted(std::uint64_t key) {
  runner::ScenarioSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(key);
    require(it != inflight_.end(), "server: dispatched key not in flight");
    spec = it->second.spec;
  }

  if (options_.before_run) options_.before_run(spec);

  runner::ScenarioResult result;
  try {
    result = runner::run_scenario(spec, {.cancel = &hard_cancel_});
  } catch (const CancelledError& e) {
    result.spec = spec;
    result.status = runner::ScenarioStatus::kCancelled;
    result.error = e.what();
  } catch (const std::exception& e) {
    result.spec = spec;
    result.status = runner::ScenarioStatus::kFailed;
    result.error = e.what();
  }

  std::vector<std::pair<std::shared_ptr<ClientConn>, std::uint64_t>> waiters;
  std::vector<Json> frames;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.executed;
    const auto it = inflight_.find(key);
    require(it != inflight_.end(), "server: completed key not in flight");
    waiters = std::move(it->second.waiters);
    inflight_.erase(it);

    if (result.status == runner::ScenarioStatus::kDone ||
        result.status == runner::ScenarioStatus::kFailed) {
      // Journal (spool bytes + fsync'd record) BEFORE any result frame
      // leaves the process: a client that saw the result can always get
      // it again from a restarted daemon.
      CachedResult uncached;
      const CachedResult* entry = nullptr;
      try {
        entry = &cache_.insert(key, result);
      } catch (const SystemError& e) {
        // Disk-full / I/O failure on the spool or journal. The result is
        // still correct -- serve it from memory rather than fail the
        // waiters; determinism means a post-restart resubmission re-runs
        // to the same bytes, so skipping the cache only costs time.
        ++counters_.insert_errors;
        std::fprintf(stderr,
                     "hpas serve: cache insert failed (%s); serving "
                     "result uncached\n",
                     e.what());
        uncached.key = key;
        uncached.name = result.spec.name;
        uncached.app_iterations =
            static_cast<std::uint64_t>(result.app_iterations);
        uncached.app_elapsed_s = result.app_elapsed_s;
        if (result.status == runner::ScenarioStatus::kDone) {
          uncached.status = runner::JournalStatus::kDone;
          uncached.metrics_csv = result.metrics_csv;
        } else {
          uncached.status = runner::JournalStatus::kFailed;
          uncached.error = result.error;
        }
        entry = &uncached;
      }
      frames.reserve(waiters.size());
      for (const auto& waiter : waiters)
        frames.push_back(result_frame(*entry, waiter.second));
    } else {
      // Cancelled/timed out: a host-timing artifact, never cached.
      for (const auto& waiter : waiters) {
        Json frame = make_ack("result", waiter.second);
        frame.set("scenario", spec.name);
        frame.set("key", hex16(key));
        frame.set("status", runner::scenario_status_name(result.status));
        if (!result.error.empty()) frame.set("error", result.error);
        frames.push_back(std::move(frame));
      }
    }

    --outstanding_;
    if (outstanding_ == 0) idle_cv_.notify_all();
  }
  for (std::size_t i = 0; i < waiters.size(); ++i)
    send_to(waiters[i].first, frames[i]);
}

void Server::send_to(const std::shared_ptr<ClientConn>& conn,
                     const Json& frame) {
  std::lock_guard<std::mutex> g(conn->write_mu);
  send_locked(conn, frame);
}

void Server::send_locked(const std::shared_ptr<ClientConn>& conn,
                         const Json& frame) {
  if (conn->closed) return;
  try {
    write_json(conn->fd, frame);
  } catch (const std::exception&) {
    conn->closed = true;  // dead peer; its later frames are dropped
  }
}

/// The byte-identity contract lives here: every member except "id" is
/// derived from the CachedResult, which is itself rebuilt bit-exactly
/// from the journal on restart. Deterministic JSON serialization does
/// the rest.
Json Server::result_frame(const CachedResult& entry, std::uint64_t id) const {
  Json frame = make_ack("result", id);
  frame.set("scenario", entry.name);
  frame.set("key", hex16(entry.key));
  frame.set("status", runner::journal_status_name(entry.status));
  if (entry.status == runner::JournalStatus::kFailed)
    frame.set("error", entry.error);
  frame.set("iterations", Json(entry.app_iterations));
  frame.set("app_time_s", entry.app_elapsed_s);
  if (entry.status == runner::JournalStatus::kDone)
    frame.set("metrics_csv", entry.metrics_csv);
  return frame;
}

Json Server::stats_json() const {
  const ServerStats s = stats();
  Json doc = Json::object();
  doc.set("type", "status");
  doc.set("submissions", Json(s.submissions));
  doc.set("cache_hits", Json(s.cache_hits));
  doc.set("coalesced", Json(s.coalesced));
  doc.set("executed", Json(s.executed));
  doc.set("busy_rejected", Json(s.busy_rejected));
  doc.set("insert_errors", Json(s.insert_errors));
  doc.set("scrub_passes", Json(s.scrub_passes));
  doc.set("cache_size", Json(static_cast<std::uint64_t>(s.cache_size)));
  doc.set("restored", Json(static_cast<std::uint64_t>(s.restored)));
  doc.set("evicted", Json(static_cast<std::uint64_t>(s.evicted)));
  doc.set("quarantined", Json(static_cast<std::uint64_t>(s.quarantined)));
  doc.set("spool_bytes", Json(s.spool_bytes));
  doc.set("outstanding", Json(static_cast<std::uint64_t>(s.outstanding)));
  doc.set("draining", s.draining);
  return doc;
}

}  // namespace hpas::server
