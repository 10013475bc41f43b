// serve_mix: an in-process `hpas serve` (server::Server, pool = nproc,
// default admission) on a data dir pre-warmed with a seeded set of
// results and restarted, so set-up replays the journal. Four client
// threads drive it closed-loop through server::Client, one outstanding
// submission each, as `hpas submit` does. The seeded mix per operation:
// 50% pre-warmed specs (hits), 40% fresh specs (misses), 10% one fresh
// spec sent on two connections at once (coalesced). No recorded client
// session fixes the split; it follows the README's serve walkthrough,
// where a grid is submitted and then submitted again, so there is one
// resubmission (hit) per fresh submission. The 10% coalesced share is
// arbitrary: enough pairs to exercise the path every run. Both classes
// get thousands of latency samples a run, so the p99 of each is
// resolved. Misses are 2-node
// scenarios with 100-200 s windows, about 5 ms of simulation and CSV
// encoding each; hits exercise only the protocol and cache lookup; the
// journal is read at restore and written on every miss. With windows of
// a few seconds a miss is mostly thread hand-offs and file-system
// metadata, whose speed on a small VM swung 2x between runs, so the
// figures would not repeat.
#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "runner/runner.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace e2e {
namespace {

namespace fs = std::filesystem;
using hpas::Json;
namespace runner = hpas::runner;
namespace server = hpas::server;

constexpr int kClients = 4;
/// Shares of operations (see the header): the rest are plain misses.
constexpr double kHitShare = 0.5;
constexpr double kCoalescedShare = 0.1;

class SpecMaker {
 public:
  SpecMaker(const Options& opt, std::uint64_t seed)
      : tiny_(opt.tiny), apps_(app_names(opt.tiny)),
        kinds_(anomaly_kinds(opt.tiny)), base_(seed) {}

  /// A fresh spec; `tag` + `k` names it and derives its stream, so every
  /// name is unique within a run.
  runner::ScenarioSpec make(const std::string& tag, std::uint64_t k,
                            hpas::Rng& rng) const {
    runner::ScenarioSpec s;
    s.name = tag + std::to_string(k);
    s.app = apps_[rng.next_below(apps_.size())];
    s.anomaly = kinds_[rng.next_below(kinds_.size())];
    s.intensity = round3(rng.uniform(0.5, 1.0));
    s.duration_s = tiny_ ? 3.0 : static_cast<double>(rng.uniform_int(100, 200));
    s.sample_period_s = 1.0;
    s.app_nodes = 2;
    s.seed = runner::derive_scenario_seed(base_, rng.next());
    return s;
  }

 private:
  bool tiny_;
  std::vector<std::string> apps_;
  std::vector<std::string> kinds_;
  std::uint64_t base_;
};

/// A result frame with its per-request id cleared: every other member is
/// a pure function of the spec.
std::string canonical(Json frame) {
  frame.set("id", 0);
  return frame.dump();
}

bool is_done_result(const Json& frame) {
  return frame.string_or("type", "") == "result" &&
         frame.string_or("status", "") == "done";
}

struct Sampled {
  runner::ScenarioSpec spec;
  Json frame;
  bool hit = false;
  std::size_t warm_index = 0;
};

/// Everything the client threads record; merged under `mu`.
struct Shared {
  std::mutex mu;
  std::vector<double> hit_ms;  ///< submit -> result
  std::vector<double> miss_ms;  ///< misses and coalesced
  std::vector<double> ack_ms;
  std::vector<Sampled> sampled;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t coalesce_mismatch = 0;
  std::uint64_t uncached_hits = 0;  ///< pre-warmed specs not served cached
  std::string error;
};

struct Latency {
  double ms;
  Phase phase;  ///< measurement phase when the request was sent
};

/// Sends `spec` under `id` and reads the `accepted` ack then the result.
/// Returns false on anything but a completed result.
bool round_trip(server::Client& c, std::uint64_t id,
                std::int64_t t0, Json& ack, Json& result, double& ack_ms,
                double& result_ms) {
  if (!c.recv(ack) || ack.string_or("type", "") != "accepted") return false;
  ack_ms = seconds_since(t0) * 1e3;
  if (!c.recv(result)) return false;
  result_ms = seconds_since(t0) * 1e3;
  return static_cast<std::uint64_t>(result.number_or("id", 0)) == id &&
         is_done_result(result);
}

}  // namespace

Report run_serve_mix(const Options& opt) {
  Report r;
  const std::string base = std::string(kWorkDir) + "/serve_mix";
  fresh_dir(base);
  server::ServerOptions so;
  so.socket_path = base + "/hpas.sock";
  so.data_dir = base + "/data";
  so.threads = 0;  // hardware concurrency

  hpas::Rng rng(opt.seed ^ 0x73657276655fULL);
  const SpecMaker maker(opt, rng.next());
  const std::size_t warm_count = opt.tiny ? 8 : 256;
  std::vector<runner::ScenarioSpec> warm;
  for (std::size_t k = 0; k < warm_count; ++k)
    warm.push_back(maker.make("w", k, rng));

  // Pre-warm: compute the warm set once so its results are journaled.
  std::vector<std::string> warm_frames(warm_count);
  {
    server::Server s(so);
    s.start();
    std::mutex error_mu;
    std::string error;
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          server::Client client = server::Client::connect(so.socket_path);
          for (std::size_t k = static_cast<std::size_t>(c); k < warm_count;
               k += kClients) {
            client.submit(k + 1, warm[k]);
            const Json frame = client.wait_result(k + 1);
            if (!is_done_result(frame))
              throw std::runtime_error("pre-warm result: " + frame.dump());
            warm_frames[k] = canonical(frame);
          }
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mu);
          error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    s.stop();
    if (!error.empty()) throw std::runtime_error(error);
  }

  // Set-up: Server::start on the warm data dir (journal replay + spool
  // validation + listener), several times; the last start stays up.
  // A traced run also traces these starts, for server.cache_open_s.
  std::vector<double> setup_s;
  set_tracing(opt.trace);
  for (int i = 0; i < (opt.tiny ? 2 : 9); ++i) {
    server::Server s(so);
    const std::int64_t t0 = now_ns();
    s.start();
    setup_s.push_back(seconds_since(t0));
    s.stop();
  }
  server::Server live(so);
  {
    const std::int64_t t0 = now_ns();
    live.start();
    setup_s.push_back(seconds_since(t0));
  }
  set_tracing(false);
  // Kept apart: the journal rewrite inside each start must not count
  // towards the per-item journal figures of the traced windows.
  std::vector<double> cache_open_ms;
  for (const Span& span : take_spans())
    if (span.layer == Layer::kCacheOpen)
      cache_open_ms.push_back(static_cast<double>(span.dur_ns) / 1e6);
  // Peak memory through pre-warm and set-up: fixed work (256 results run,
  // cached and restored). The cache keeps every result in memory, so a
  // peak taken after the load would grow with the number of misses a
  // run gets through, and a faster server would read as a fatter one.
  const double rss = peak_rss_mb();

  Shared shared;
  std::atomic<bool> stop{false};
  std::atomic<Phase> phase{Phase::kWarmup};
  std::atomic<std::uint64_t> completed{0};
  const auto client_loop = [&](int c) {
    hpas::Rng ops(opt.seed * 0x9e3779b97f4a7c15ULL + static_cast<unsigned>(c));
    std::vector<Latency> hits, misses, acks;
    std::vector<Sampled> sampled;
    std::uint64_t attempted = 0, failed = 0, mismatch = 0, uncached_hits = 0;
    std::size_t sampled_hits = 0, sampled_misses = 0;
    const double sample_p = opt.tiny ? 0.5 : 0.01;
    try {
      server::Client a = server::Client::connect(so.socket_path);
      server::Client b = server::Client::connect(so.socket_path);
      const std::string tag = "c" + std::to_string(c) + "_";
      for (std::uint64_t k = 0; !stop.load(std::memory_order_relaxed); ++k) {
        const double u = ops.uniform01();
        const bool hit = u < kHitShare;
        const bool coalesce = !hit && u < kHitShare + kCoalescedShare;
        std::size_t warm_index = 0;
        runner::ScenarioSpec spec;
        if (hit) {
          warm_index = ops.next_below(warm_count);
          spec = warm[warm_index];
        } else {
          spec = maker.make(tag, k, ops);
        }
        const Phase at = phase.load(std::memory_order_relaxed);
        const std::uint64_t id = 2 * k + 1;
        const std::int64_t t0 = now_ns();
        a.submit(id, spec);
        if (coalesce) b.submit(id + 1, spec);
        Json ack, result, ack2, result2;
        double ack_ms = 0, result_ms = 0, ack2_ms = 0, result2_ms = 0;
        attempted += coalesce ? 2 : 1;
        const bool ok = round_trip(a, id, t0, ack, result, ack_ms, result_ms);
        // Latencies are classed by operation, not by the ack's `cached`
        // flag: the second submit of a coalesced pair may reach the server
        // first and finish before the first one arrives.
        std::vector<Latency>& bucket = hit ? hits : misses;
        if (coalesce) {
          const bool ok2 =
              round_trip(b, id + 1, t0, ack2, result2, ack2_ms, result2_ms);
          if (!ok2) ++failed;
          if (ok && ok2 && canonical(result) != canonical(result2))
            ++mismatch;
          if (ok2) {
            completed.fetch_add(1, std::memory_order_relaxed);
            acks.push_back({ack2_ms, at});
            bucket.push_back({result2_ms, at});
          }
        }
        if (!ok) {
          ++failed;
          continue;
        }
        if (hit && !ack.bool_or("cached", false)) ++uncached_hits;
        completed.fetch_add(1, std::memory_order_relaxed);
        acks.push_back({ack_ms, at});
        bucket.push_back({result_ms, at});
        std::size_t& taken = hit ? sampled_hits : sampled_misses;
        if (taken < 6 && ops.uniform01() < sample_p) {
          ++taken;
          sampled.push_back({spec, result, hit, warm_index});
        }
      }
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(shared.mu);
      shared.error = e.what();
    }
    // Untraced runs keep the samples of untraced windows, traced runs
    // those of traced windows (to match the spans); warm-up is dropped.
    const Phase wanted = opt.trace ? Phase::kTraced : Phase::kUntraced;
    const auto keep = [&](const std::vector<Latency>& from,
                          std::vector<double>& to) {
      for (const Latency& l : from)
        if (l.phase == wanted) to.push_back(l.ms);
    };
    std::lock_guard<std::mutex> lock(shared.mu);
    keep(hits, shared.hit_ms);
    keep(misses, shared.miss_ms);
    keep(acks, shared.ack_ms);
    shared.sampled.insert(shared.sampled.end(), sampled.begin(), sampled.end());
    shared.attempted += attempted;
    shared.failed += failed;
    shared.coalesce_mismatch += mismatch;
    shared.uncached_hits += uncached_hits;
  };

  // Warm-up: on a VM the hand-off-heavy server speeds up over its first
  // seconds of load, so 5 s of unrecorded load come first. Then equal
  // windows are measured; a traced run alternates untraced and traced
  // windows so trace.overhead_frac compares throughput within one
  // process. Throughput is the windows' total, not their median: file
  // system journal commits make it swing with a period of a few seconds.
  const int windows = std::max(2, static_cast<int>(opt.seconds + 0.5));
  const double window_s = opt.seconds / windows;
  std::vector<double> untraced_rate;  ///< per window, for the note
  FaultCounter faults;
  ServerLayer traced_stats;  ///< Server::stats() differences, traced windows
  double traced_wall = 0.0, untraced_wall = 0.0;
  std::uint64_t traced_done = 0, untraced_done = 0;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) clients.emplace_back(client_loop, c);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(opt.tiny ? 0.5 : 5.0));
  for (int w = 0; w < windows; ++w) {
    const bool traced = opt.trace && w % 2 == 1;
    if (traced) faults.start();
    const server::ServerStats stats_before = live.stats();
    set_tracing(traced);
    phase.store(traced ? Phase::kTraced : Phase::kUntraced);
    const std::uint64_t before = completed.load();
    const std::int64_t t0 = now_ns();
    std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
    const double s = seconds_since(t0);
    const std::uint64_t done = completed.load() - before;
    const double rate = static_cast<double>(done) / s;
    set_tracing(false);
    if (traced) {
      faults.stop();
      const server::ServerStats st = live.stats();
      traced_stats.submissions += st.submissions - stats_before.submissions;
      traced_stats.cache_hits += st.cache_hits - stats_before.cache_hits;
      traced_stats.coalesced += st.coalesced - stats_before.coalesced;
      traced_stats.executed += st.executed - stats_before.executed;
      traced_stats.busy_rejected +=
          st.busy_rejected - stats_before.busy_rejected;
      traced_wall += s;
      traced_done += done;
    } else {
      untraced_wall += s;
      untraced_done += done;
    }
    if (!traced) untraced_rate.push_back(rate);
  }
  phase.store(Phase::kWarmup);
  stop.store(true);
  for (std::thread& t : clients) t.join();
  const server::ServerStats stats = live.stats();
  live.stop();

  r.attempted = shared.attempted;
  r.failed = shared.failed;
  r.check(shared.error.empty(), "client connections ran without error" +
                                    (shared.error.empty()
                                         ? std::string()
                                         : ": " + shared.error));
  r.check(shared.coalesce_mismatch == 0,
          "coalesced pairs received byte-equal result frames");
  r.check(shared.uncached_hits == 0,
          "every pre-warmed spec was answered from the cache");
  r.note("serve_mix: " + std::to_string(warm_count) + " pre-warmed results, " +
         std::to_string(kClients) + " closed-loop clients, " +
         std::to_string(stats.submissions) + " submissions (" +
         std::to_string(stats.cache_hits) + " hits, " +
         std::to_string(stats.coalesced) + " coalesced, " +
         std::to_string(stats.executed) + " executed)");

  // Correctness: sampled miss frames carry run_scenario's exact CSV;
  // sampled hit frames equal the frame computed when the spec missed.
  std::size_t checked = 0, equal = 0;
  for (const Sampled& s : shared.sampled) {
    ++checked;
    bool same = false;
    if (s.hit) {
      same = canonical(s.frame) == warm_frames[s.warm_index];
    } else {
      same = s.frame.string_or("metrics_csv", "") ==
             runner::run_scenario(s.spec).metrics_csv;
    }
    if (same) ++equal;
    else
      r.note("mismatch: " + s.spec.name + (s.hit ? " (hit)" : " (miss)") +
             " frame " + s.frame.dump().substr(0, 300));
  }
  for (std::size_t k = 0; k < std::min<std::size_t>(2, warm_count); ++k) {
    ++checked;
    const Json frame = Json::parse(warm_frames[k]);
    if (frame.string_or("metrics_csv", "") ==
        runner::run_scenario(warm[k]).metrics_csv)
      ++equal;
  }
  r.check(checked > 2 && equal == checked,
          std::to_string(equal) + "/" + std::to_string(checked) +
              " sampled result frames byte-equal to run_scenario or to the "
              "frame of their first miss");

  std::string rates = "window results/s:";
  for (double x : untraced_rate) rates += " " + std::to_string(static_cast<int>(x));
  r.note(rates);
  if (!opt.trace) {
    add_setup(r, setup_s);
    r.add("items_per_s", static_cast<double>(untraced_done) / untraced_wall,
          "1/s");
    // Item latency is that of the items that run a scenario (misses and
    // coalesced): a percentile over both classes would sit on the edge
    // between the 0.1 ms hits and the 5 ms misses and jump with the mix.
    add_latency(r, "item", shared.miss_ms);
    r.add("peak_rss_mb", rss, "MB");
  } else {
    TraceContext ctx;
    ctx.traced_wall_s = traced_wall;
    ctx.traced_items = static_cast<double>(traced_done);
    const double base_rate = static_cast<double>(untraced_done) / untraced_wall;
    const double traced_rate = static_cast<double>(traced_done) / traced_wall;
    ctx.overhead_frac = traced_rate > 0.0 ? base_rate / traced_rate - 1.0 : 0.0;
    ctx.threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    ctx.faults = faults;
    ctx.spans_path = std::string(kWorkDir) + "/trace-serve_mix.tsv";
    const LayerTotals totals = summarize(take_spans());
    add_layer_metrics(r, totals, ctx);
    ServerLayer& sl = traced_stats;
    sl.ack_ms = shared.ack_ms;
    sl.hit_ms = shared.hit_ms;
    sl.miss_ms = shared.miss_ms;
    sl.cache_open_ms = cache_open_ms;
    add_server_metrics(r, totals, sl);
  }
  fs::remove_all(base);
  return r;
}

}  // namespace e2e
