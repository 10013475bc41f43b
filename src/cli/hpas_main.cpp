// hpas -- the HPC Performance Anomaly Suite command-line tool.
//
// Usage:
//   hpas list                      # Table 1: the anomaly catalog
//   hpas <anomaly> [options]       # run one generator
//   hpas <anomaly> --help          # that generator's knobs
//
// Examples (mirroring the paper's experiments):
//   hpas cpuoccupy -u 80 -d 60s        # 80% of one core for a minute
//   hpas cachecopy -c L3 -d 30s        # occupy the last-level cache
//   hpas membw -s 64M -d 30s           # saturate DRAM write bandwidth
//   hpas memleak -s 20M -r 1s -d 5m    # leak 20 MB/s^-1... forever-ish
//   hpas netoccupy --mode recv         # on node A
//   hpas netoccupy --mode send --host <A>   # on node B
//   hpas iometadata --dir /shared/fs -n 48 -d 60s
//
// Batch experiments run through the deterministic parallel runner:
//   hpas sweep grid.json -j 8 -o out/   # scenario grid across 8 workers
//   hpas sweep grid.json -o out/ --resume          # continue a killed sweep
//   hpas sweep grid.json --scenario-timeout 5m     # bound each grid point
//
// Guided scenario-space search (seeded, resumable, byte-reproducible):
//   hpas search space.json --budget 64 -j 8 -o out/
//   hpas search space.json -o out/ --resume        # continue a killed search
//   hpas search --replay out/frontier.json --index 0   # verify a finding
//
// Sweep-as-a-service (durable daemon with a content-addressed cache):
//   hpas serve --data srv/ -j 8                # start the daemon
//   hpas submit grid.json --socket srv/hpas.sock   # run a grid through it
//   hpas submit --status --socket srv/hpas.sock    # server statistics
//
// Shutdown contract: the first SIGINT/SIGTERM drains gracefully (sweeps
// journal in-flight scenarios and exit 0 with a resume hint); a second
// signal cancels hard (exit 130) but still leaves a valid journal.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "anomalies/anomaly.hpp"
#include "anomalies/schedule.hpp"
#include "anomalies/suite.hpp"
#include "common/backoff.hpp"
#include "common/cancel.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/units.hpp"
#include "dataset/factory.hpp"
#include "faultline/durable.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"
#include "search/driver.hpp"
#include "search/space.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

#include <chrono>
#include <thread>

namespace {

std::atomic<bool> g_stop_schedule{false};

/// Unsubscribes a ShutdownController callback when the scope that owns
/// the captured state ends, so a late signal cannot touch a dead object.
class ScopedShutdownSubscription {
 public:
  explicit ScopedShutdownSubscription(std::function<void(int)> fn)
      : id_(hpas::ShutdownController::instance().subscribe(std::move(fn))) {}
  ~ScopedShutdownSubscription() {
    hpas::ShutdownController::instance().unsubscribe(id_);
  }
  ScopedShutdownSubscription(const ScopedShutdownSubscription&) = delete;
  ScopedShutdownSubscription& operator=(const ScopedShutdownSubscription&) =
      delete;

 private:
  std::uint64_t id_;
};

/// Drain and abort tokens of the pool verbs. Static lifetime: the watcher
/// thread may still dereference them while main unwinds after a signal
/// near the end of a run.
hpas::CancelToken g_graceful;
hpas::CancelToken g_hard;

/// The pool verbs' two-signal contract: the first SIGINT/SIGTERM cancels
/// g_graceful and prints `drain_message`. With `hard`, later signals
/// cancel g_hard; without it (search) they repeat the drain.
ScopedShutdownSubscription drain_on_signal(const char* drain_message,
                                           bool hard) {
  hpas::ShutdownController::instance().install();
  return ScopedShutdownSubscription([drain_message, hard](int count) {
    if (count == 1 || !hard) {
      g_graceful.cancel(hpas::CancelReason::kShutdown);
      std::fprintf(stderr, "\nhpas: %s\n", drain_message);
    } else {
      g_hard.cancel(hpas::CancelReason::kShutdown);
    }
  });
}

/// Most workers -j accepts: far above any host's core count, and low
/// enough that a typo cannot ask the pool for billions of threads.
constexpr std::uint64_t kMaxThreads = 1024;

/// Declares the execution flags: -j on the pool verbs (sweep, search,
/// dataset, serve) and --fault-schedule on those and on submit.
hpas::CliParser& add_exec_flags(hpas::CliParser& parser, bool threads) {
  if (threads)
    parser.add({.long_name = "threads", .short_name = 'j', .value_name = "N",
                .help = "worker threads, at most " +
                        std::to_string(kMaxThreads) +
                        "; 0 = all hardware threads",
                .default_value = "0"});
  return parser.add(
      {.long_name = "fault-schedule", .short_name = '\0',
       .value_name = "FILE",
       .help = "arm a deterministic fault-injection schedule (chaos "
               "testing; see DESIGN.md)",
       .default_value = std::nullopt});
}

/// Applies the execution flags. --fault-schedule arms the process-wide
/// fault-injection engine, over HPAS_FAULT_SCHEDULE (armed by main);
/// neither is ever part of scenario identity -- schedules shape I/O
/// failures, not results. The returned options carry -j resolved (0 =
/// every hardware thread) and the signal tokens.
hpas::runner::ExecOptions exec_options(const hpas::ParsedArgs& args) {
  if (args.has("fault-schedule"))
    hpas::faultline::arm(hpas::faultline::FaultSchedule::load_file(
        args.value("fault-schedule")));
  hpas::runner::ExecOptions exec;
  exec.graceful = &g_graceful;
  exec.hard = &g_hard;
  if (!args.has("threads")) return exec;
  const std::uint64_t threads = hpas::flag_u64(args, "threads");
  if (threads > kMaxThreads)
    throw hpas::ConfigError("--threads: " + std::to_string(threads) +
                            " is above the limit of " +
                            std::to_string(kMaxThreads));
  exec.threads = threads == 0
                     ? hpas::runner::WorkStealingPool::default_thread_count()
                     : static_cast<int>(threads);
  return exec;
}

int run_schedule_command(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::fprintf(stderr,
                 "usage: hpas schedule <file>\n"
                 "  file format, one instance per line:\n"
                 "    at 0s   cpuoccupy -u 80 -d 30s\n"
                 "    at 10s  memleak -s 20M -d 45s\n");
    return 2;
  }
  const auto schedule = hpas::anomalies::load_schedule_file(args[0]);
  std::printf("schedule: %zu instances, span %s\n", schedule.entries.size(),
              hpas::format_seconds(schedule.span_seconds()).c_str());
  hpas::ShutdownController::instance().install();
  ScopedShutdownSubscription stop_on_signal(
      [](int) { g_stop_schedule.store(true, std::memory_order_relaxed); });
  const auto results =
      hpas::anomalies::run_schedule(schedule, &g_stop_schedule);
  int failures = 0;
  int worker_failures = 0;
  for (const auto& result : results) {
    if (result.supervision.fatal()) {
      ++worker_failures;
      std::fprintf(stderr, "hpas: %s\n",
                   result.supervision.to_string().c_str());
    }
    if (!result.error.empty()) {
      ++failures;
      std::fprintf(stderr, "hpas: %s (at %gs) failed: %s\n",
                   result.entry.anomaly.c_str(), result.entry.start_s,
                   result.error.c_str());
      continue;
    }
    std::printf("%s (at %gs): %llu iterations, work=%.3g, elapsed=%s\n",
                result.entry.anomaly.c_str(), result.entry.start_s,
                static_cast<unsigned long long>(result.stats.iterations),
                result.stats.work_amount,
                hpas::format_seconds(result.stats.elapsed_seconds).c_str());
  }
  if (failures != 0) return 1;
  return worker_failures == 0 ? 0 : 4;
}

int run_sweep_command(const std::vector<std::string>& argv) {
  hpas::CliParser parser(
      "hpas sweep",
      "run a scenario grid through the deterministic parallel runner");
  add_exec_flags(parser, /*threads=*/true)
      .add({.long_name = "out", .short_name = 'o', .value_name = "DIR",
            .help = "output directory (per-scenario CSVs + summary.json)",
            .default_value = "sweep-out"})
      .add({.long_name = "trace", .short_name = '\0', .value_name = "",
            .help = "capture a per-scenario trace (writes NAME.trace.bin)",
            .default_value = std::nullopt})
      .add({.long_name = "resume", .short_name = '\0', .value_name = "",
            .help = "replay DIR/sweep.journal, keep validated outputs, run "
                    "only what is missing",
            .default_value = std::nullopt})
      .add({.long_name = "scenario-timeout", .short_name = '\0',
            .value_name = "TIME",
            .help = "wall-clock budget per scenario; over budget it is "
                    "cancelled and journaled as timeout (0 = off)",
            .default_value = "0"})
      .add({.long_name = "deadline", .short_name = '\0',
            .value_name = "TIME",
            .help = "wall-clock budget for the whole sweep (0 = off)",
            .default_value = "0"})
      .add({.long_name = "dry-run", .short_name = '\0', .value_name = "",
            .help = "expand and print the grid without running it",
            .default_value = std::nullopt});
  const auto args = parser.parse(argv);
  if (args.flag("help")) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  hpas::runner::SweepOptions options;
  static_cast<hpas::runner::ExecOptions&>(options) = exec_options(args);
  if (args.positional().size() != 1) {
    std::fprintf(stderr, "usage: hpas sweep <grid.json> [-j N] [-o DIR]\n");
    return 2;
  }

  const auto grid = hpas::runner::load_grid_file(args.positional()[0]);
  std::printf("sweep '%s': %zu scenarios across %d threads\n",
              grid.name.c_str(), grid.scenarios.size(), options.threads);

  if (args.flag("dry-run")) {
    for (const auto& s : grid.scenarios)
      std::printf("  %-40s seed=%llu\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.seed));
    return 0;
  }

  const std::string out_dir = args.value("out");
  const auto on_signal = drain_on_signal(
      "draining in-flight scenarios (journaling); signal again to cancel "
      "hard",
      /*hard=*/true);

  options.capture_traces = args.flag("trace");
  options.scenario_timeout_s =
      hpas::flag_duration_seconds(args, "scenario-timeout");
  options.deadline_s = hpas::flag_duration_seconds(args, "deadline");
  options.journal_path = out_dir + "/sweep.journal";
  options.resume = args.flag("resume");

  const auto result = hpas::runner::run_sweep(grid, options);
  // Outputs (including summary.json) are always written: a partial sweep
  // plus its journal is exactly what --resume continues from.
  hpas::runner::write_outputs(result, out_dir);

  const auto summary = result.summary_json();
  for (const auto& group : summary.find("by_anomaly")->as_array()) {
    std::printf("  %-12s median=%8.1fs  p95=%8.1fs  cv=%5.1f%%\n",
                group.find("anomaly")->as_string().c_str(),
                group.number_or("median_s", 0.0),
                group.number_or("p95_s", 0.0),
                group.number_or("cv_pct", 0.0));
  }
  using hpas::runner::ScenarioStatus;
  const std::size_t timeouts = result.count(ScenarioStatus::kTimeout);
  const std::size_t failed = result.count(ScenarioStatus::kFailed);
  const std::size_t cancelled = result.count(ScenarioStatus::kCancelled);
  const std::size_t not_run = result.count(ScenarioStatus::kNotRun);
  std::printf("sweep: %zu executed, %zu resumed, %zu timeout, "
              "%zu cancelled, %zu not run\n",
              result.executed, result.resumed, timeouts, cancelled, not_run);
  if (result.tmp_removed > 0)
    std::printf("sweep: swept %zu orphaned .tmp file(s)\n",
                result.tmp_removed);
  if (result.journal_dropped > 0)
    std::printf("sweep: discarded %zu damaged journal frame(s)\n",
                result.journal_dropped);
  std::printf("wrote outputs + summary.json to %s/\n", out_dir.c_str());

  if (g_hard.cancelled()) {
    std::fprintf(stderr,
                 "hpas: sweep cancelled hard; journal is valid, resume "
                 "with: hpas sweep ... -o %s --resume\n",
                 out_dir.c_str());
    return 130;
  }
  if (failed > 0) {
    std::fprintf(stderr, "hpas: sweep failed: %s\n",
                 result.first_error().c_str());
    return 1;
  }
  if (g_graceful.cancelled()) {
    std::printf("hpas: sweep interrupted after draining; resume with: "
                "hpas sweep ... -o %s --resume\n",
                out_dir.c_str());
    return 0;
  }
  // Timeouts, deadline cancellations, or scenarios never started: the
  // sweep finished but incompletely -- a distinct, scriptable exit code.
  if (timeouts + cancelled + not_run > 0) return 5;
  return 0;
}

/// Search, replay and submit outputs: the sweep's durable write path.
void write_text_file(const std::string& path, const std::string& bytes) {
  hpas::faultline::write_file_atomic(hpas::faultline::Domain::kJournal, path,
                                     bytes);
}

/// Re-runs one frontier entry and verifies it reproduces the recorded
/// summary row byte-for-byte. Exit 0 = reproduced, 3 = mismatch.
int run_search_replay(const hpas::ParsedArgs& args) {
  const hpas::Json doc = hpas::faultline::load_json_file(args.value("replay"));
  const hpas::Json* entry = nullptr;
  if (args.flag("minimized")) {
    entry = doc.find("minimized");
    if (entry == nullptr)
      throw hpas::ConfigError("replay: frontier has no minimized entry");
  } else {
    const hpas::Json* frontier = doc.find("frontier");
    if (frontier == nullptr || !frontier->is_array())
      throw hpas::ConfigError("replay: document has no frontier array");
    const auto index =
        static_cast<std::size_t>(hpas::flag_u64(args, "index"));
    if (index >= frontier->as_array().size())
      throw hpas::ConfigError("replay: --index is out of range");
    entry = &frontier->as_array()[index];
  }
  const hpas::Json* spec_doc = entry->find("spec");
  const hpas::Json* expected = entry->find("summary_row");
  if (spec_doc == nullptr || expected == nullptr)
    throw hpas::ConfigError("replay: entry is missing spec or summary_row");

  const auto spec = hpas::runner::spec_from_json(*spec_doc);
  const auto result =
      hpas::runner::run_scenario(spec, {.capture_trace = args.flag("trace")});
  const hpas::Json row = hpas::runner::summary_row_json(
      spec, result.app_elapsed_s,
      static_cast<std::uint64_t>(result.app_iterations));

  if (args.flag("trace") && !result.trace_bin.empty()) {
    const std::string out_dir = args.value("out");
    std::filesystem::create_directories(out_dir);
    write_text_file(out_dir + "/" + spec.name + ".trace.bin",
                    result.trace_bin);
    std::printf("wrote %s/%s.trace.bin (%llu records)\n", out_dir.c_str(),
                spec.name.c_str(),
                static_cast<unsigned long long>(result.trace_records));
  }

  const std::string got = row.dump(2);
  const std::string want = expected->dump(2);
  std::fputs(got.c_str(), stdout);
  if (got != want) {
    std::fprintf(stderr,
                 "hpas: replay mismatch for %s: recorded summary row "
                 "differs:\n%s",
                 spec.name.c_str(), want.c_str());
    return 3;
  }
  std::printf("replay: %s reproduced byte-for-byte\n", spec.name.c_str());
  return 0;
}

int run_search_command(const std::vector<std::string>& argv) {
  hpas::CliParser parser(
      "hpas search",
      "guided scenario-space search over the deterministic runner");
  add_exec_flags(parser, /*threads=*/true)
      .add({.long_name = "strategy", .short_name = 's', .value_name = "NAME",
            .help = "search strategy: random, anneal or bandit",
            .default_value = "anneal"})
      .add({.long_name = "objective", .short_name = '\0',
            .value_name = "NAME",
            .help = "max_degradation_per_intensity, evade_diagnosis or "
                    "scheduler_worst_case",
            .default_value = "max_degradation_per_intensity"})
      .add({.long_name = "budget", .short_name = 'n', .value_name = "N",
            .help = "total proposals to evaluate",
            .default_value = "64"})
      .add({.long_name = "batch", .short_name = 'b', .value_name = "N",
            .help = "proposals per batch (a search parameter, not the "
                    "thread count)",
            .default_value = "8"})
      .add({.long_name = "frontier", .short_name = '\0', .value_name = "N",
            .help = "ranked entries kept in frontier.json",
            .default_value = "8"})
      .add({.long_name = "out", .short_name = 'o', .value_name = "DIR",
            .help = "output directory (frontier.json + search.journal)",
            .default_value = "search-out"})
      .add({.long_name = "seed", .short_name = '\0', .value_name = "S",
            .help = "override the space file's base seed",
            .default_value = std::nullopt})
      .add({.long_name = "resume", .short_name = '\0', .value_name = "",
            .help = "replay DIR/search.journal as an evaluation cache and "
                    "run only what is missing",
            .default_value = std::nullopt})
      .add({.long_name = "minimize", .short_name = '\0', .value_name = "",
            .help = "greedily shrink the best finding to a minimal config",
            .default_value = std::nullopt})
      .add({.long_name = "keep", .short_name = '\0', .value_name = "FRAC",
            .help = "minimizer keeps at least this fraction of the best "
                    "objective",
            .default_value = "0.9"})
      .add({.long_name = "trace", .short_name = '\0', .value_name = "",
            .help = "re-run frontier scenarios with trace capture "
                    "(writes NAME.trace.bin)",
            .default_value = std::nullopt})
      .add({.long_name = "replay", .short_name = '\0', .value_name = "FILE",
            .help = "verify one frontier entry of FILE instead of searching",
            .default_value = std::nullopt})
      .add({.long_name = "index", .short_name = '\0', .value_name = "K",
            .help = "frontier entry to replay (rank K+1)",
            .default_value = "0"})
      .add({.long_name = "minimized", .short_name = '\0', .value_name = "",
            .help = "replay the minimized entry instead of a ranked one",
            .default_value = std::nullopt});
  const auto args = parser.parse(argv);
  if (args.flag("help")) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  hpas::search::SearchOptions options;
  static_cast<hpas::runner::ExecOptions&>(options) = exec_options(args);
  if (args.has("replay")) return run_search_replay(args);
  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: hpas search <space.json> [options]\n"
                 "       hpas search --replay <frontier.json> [--index K]\n");
    return 2;
  }

  auto space = hpas::search::ScenarioSpace::load_file(args.positional()[0]);
  if (args.has("seed"))
    space.set_base_seed(hpas::flag_u64(args, "seed"));

  const std::string out_dir = args.value("out");
  std::filesystem::create_directories(out_dir);

  const auto on_signal = drain_on_signal(
      "finishing the running batch (journaling), then stopping; resume "
      "with --resume",
      /*hard=*/false);

  options.strategy = args.value("strategy");
  options.objective = args.value("objective");
  options.budget = hpas::flag_u64(args, "budget");
  options.batch = hpas::flag_u64(args, "batch");
  options.frontier_size = hpas::flag_u64(args, "frontier");
  options.journal_path = out_dir + "/search.journal";
  options.resume = args.flag("resume");
  options.minimize = args.flag("minimize");
  options.minimize_keep = hpas::flag_double(args, "keep");

  std::printf("search '%s': strategy=%s objective=%s budget=%zu seed=%llu\n",
              space.name().c_str(), options.strategy.c_str(),
              options.objective.c_str(), options.budget,
              static_cast<unsigned long long>(space.base_seed()));

  const auto result = hpas::search::run_search(space, options);

  const std::string frontier_path = out_dir + "/frontier.json";
  write_text_file(frontier_path,
                  result.frontier_json(space, frontier_path).dump(2));

  for (std::size_t i = 0; i < result.frontier.size(); ++i) {
    const auto& e = result.frontier[i];
    std::printf("  #%zu %-20s objective=%.6g app_time=%.1fs\n", i + 1,
                e.spec.name.c_str(), e.objective, e.app_elapsed_s);
  }
  if (result.has_minimized)
    std::printf("  min %-20s objective=%.6g (keep >= %.2f of best)\n",
                result.minimized.spec.name.c_str(),
                result.minimized.objective, options.minimize_keep);

  // Optional trace captures of the frontier: deterministic re-runs of the
  // winning scenarios, replay-diffable with trace_diff.
  if (args.flag("trace")) {
    for (const auto& e : result.frontier) {
      const auto rerun =
          hpas::runner::run_scenario(e.spec, {.capture_trace = true});
      write_text_file(out_dir + "/" + e.spec.name + ".trace.bin",
                      rerun.trace_bin);
    }
    std::printf("wrote %zu frontier trace(s) to %s/\n",
                result.frontier.size(), out_dir.c_str());
  }

  std::printf("search: %zu evaluated, %zu cached; wrote %s\n",
              result.executed, result.cached, frontier_path.c_str());
  if (result.interrupted) {
    std::printf("hpas: search interrupted after draining; resume with: "
                "hpas search ... -o %s --resume\n",
                out_dir.c_str());
  }
  return 0;
}

int run_serve_command(const std::vector<std::string>& argv) {
  hpas::CliParser parser(
      "hpas serve",
      "long-running experiment daemon with a durable result cache");
  add_exec_flags(parser, /*threads=*/true)
      .add({.long_name = "data", .short_name = 'o', .value_name = "DIR",
            .help = "durable state: server.journal + result spool",
            .default_value = "serve-data"})
      .add({.long_name = "socket", .short_name = 's', .value_name = "PATH",
            .help = "unix-domain listener (default: DATA/hpas.sock)",
            .default_value = std::nullopt})
      .add({.long_name = "tcp", .short_name = '\0', .value_name = "PORT",
            .help = "also listen on 127.0.0.1:PORT (0 = ephemeral)",
            .default_value = std::nullopt})
      .add({.long_name = "admit", .short_name = '\0', .value_name = "N",
            .help = "max outstanding scenarios before `busy` backpressure",
            .default_value = "64"})
      .add({.long_name = "io-timeout", .short_name = '\0',
            .value_name = "TIME",
            .help = "per-connection I/O deadline; a peer stalled mid-frame "
                    "is disconnected, idle clients are unaffected (0 = off)",
            .default_value = "30s"})
      .add({.long_name = "spool-cap", .short_name = '\0',
            .value_name = "BYTES",
            .help = "result-spool size cap; past it least-recently-served "
                    "results are evicted and re-run on demand (0 = "
                    "unbounded)",
            .default_value = "0"})
      .add({.long_name = "scrub-interval", .short_name = '\0',
            .value_name = "TIME",
            .help = "CRC-verify the spool this often, quarantining corrupt "
                    "entries (0 = off)",
            .default_value = "0"});
  const auto args = parser.parse(argv);
  if (args.flag("help")) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }

  hpas::server::ServerOptions options;
  options.threads = exec_options(args).threads;
  options.data_dir = args.value("data");
  options.socket_path = args.has("socket") ? args.value("socket")
                                           : options.data_dir + "/hpas.sock";
  if (args.has("tcp"))
    options.tcp_port = static_cast<int>(hpas::flag_u64(args, "tcp"));
  options.admission_capacity =
      static_cast<std::size_t>(hpas::flag_u64(args, "admit"));
  options.io_timeout_s = hpas::flag_duration_seconds(args, "io-timeout");
  options.spool_cap_bytes = hpas::parse_bytes(args.value("spool-cap"));
  options.scrub_interval_s =
      hpas::flag_duration_seconds(args, "scrub-interval");
  // The cache replays the journal before the socket exists, so the data
  // dir must be creatable up front.
  std::filesystem::create_directories(options.data_dir);

  hpas::server::Server server(options);
  server.start();

  auto& shutdown = hpas::ShutdownController::instance();
  shutdown.install();
  ScopedShutdownSubscription on_signal([&server](int count) {
    // Nonblocking on the watcher thread: the blocking drain happens in
    // server.wait() below, so a second signal can still get through.
    if (count == 1) {
      std::fprintf(stderr,
                   "\nhpas: draining (finishing admitted scenarios, "
                   "journaling); signal again to cancel hard\n");
      server.request_drain();
    } else {
      server.request_hard();
    }
  });

  const auto stats = server.stats();
  std::printf("serve: listening on %s", options.socket_path.c_str());
  if (server.tcp_port() >= 0)
    std::printf(" and 127.0.0.1:%d", server.tcp_port());
  std::printf("\nserve: cache ready, %zu result(s) restored from %s\n",
              stats.restored, options.data_dir.c_str());
  std::fflush(stdout);  // "cache ready" is the scriptable readiness line

  const std::uint64_t executed = server.wait();
  const auto final_stats = server.stats();
  std::printf("serve: %llu submission(s), %llu executed, %llu cache hit(s), "
              "%llu coalesced, %llu busy\n",
              static_cast<unsigned long long>(final_stats.submissions),
              static_cast<unsigned long long>(executed),
              static_cast<unsigned long long>(final_stats.cache_hits),
              static_cast<unsigned long long>(final_stats.coalesced),
              static_cast<unsigned long long>(final_stats.busy_rejected));
  if (shutdown.hard_requested()) return 130;
  return 0;
}

int run_submit_command(const std::vector<std::string>& argv) {
  hpas::CliParser parser(
      "hpas submit", "run a scenario grid through a running `hpas serve`");
  add_exec_flags(parser, /*threads=*/false)
      .add({.long_name = "socket", .short_name = 's', .value_name = "PATH",
            .help = "daemon's unix-domain socket",
            .default_value = "serve-data/hpas.sock"})
      .add({.long_name = "tcp", .short_name = '\0', .value_name = "PORT",
            .help = "connect to 127.0.0.1:PORT instead of the socket",
            .default_value = std::nullopt})
      .add({.long_name = "out", .short_name = 'o', .value_name = "DIR",
            .help = "also write each scenario's metrics CSV here",
            .default_value = std::nullopt})
      .add({.long_name = "status", .short_name = '\0', .value_name = "",
            .help = "print server statistics instead of submitting",
            .default_value = std::nullopt})
      .add({.long_name = "retry-base", .short_name = '\0',
            .value_name = "TIME",
            .help = "initial busy/reconnect retry delay (doubles per "
                    "attempt, jittered)",
            .default_value = "50ms"})
      .add({.long_name = "retry-cap", .short_name = '\0',
            .value_name = "TIME",
            .help = "upper bound on one retry delay",
            .default_value = "2s"})
      .add({.long_name = "retry-seed", .short_name = '\0', .value_name = "S",
            .help = "jitter seed; the delay sequence is deterministic "
                    "per seed",
            .default_value = "1"});
  const auto args = parser.parse(argv);
  if (args.flag("help")) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  exec_options(args);  // arms --fault-schedule

  const double retry_base_ms =
      hpas::flag_duration_seconds(args, "retry-base") * 1000.0;
  const double retry_cap_ms =
      hpas::flag_duration_seconds(args, "retry-cap") * 1000.0;
  const std::uint64_t retry_seed = hpas::flag_u64(args, "retry-seed");

  // Reconnect discipline: a daemon mid-restart refuses connections for a
  // moment; retry with the same capped jittered backoff as busy answers
  // instead of failing the whole campaign on the first ECONNREFUSED.
  hpas::Backoff connect_backoff(retry_base_ms, retry_cap_ms, retry_seed);
  constexpr std::uint64_t kMaxConnectAttempts = 5;
  auto connect_with_backoff = [&]() {
    while (true) {
      try {
        return args.has("tcp")
                   ? hpas::server::Client::connect_tcp(
                         static_cast<int>(hpas::flag_u64(args, "tcp")))
                   : hpas::server::Client::connect(args.value("socket"));
      } catch (const hpas::SystemError&) {
        if (connect_backoff.attempts() + 1 >= kMaxConnectAttempts) throw;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            connect_backoff.next_ms()));
      }
    }
  };
  auto client = connect_with_backoff();

  if (args.flag("status")) {
    client.request_status();
    hpas::Json frame;
    while (client.recv(frame)) {
      if (frame.string_or("type", "") != "status") continue;
      std::fputs(frame.dump(2).c_str(), stdout);
      std::printf("submit: %llu connect retry(ies)\n",
                  static_cast<unsigned long long>(
                      connect_backoff.attempts()));
      return 0;
    }
    std::fprintf(stderr, "hpas: server closed before answering\n");
    return 1;
  }

  if (args.positional().size() != 1) {
    std::fprintf(stderr,
                 "usage: hpas submit <grid.json> [--socket PATH | --tcp "
                 "PORT] [-o DIR]\n");
    return 2;
  }
  const auto grid = hpas::runner::load_grid_file(args.positional()[0]);
  if (args.has("out"))
    std::filesystem::create_directories(args.value("out"));

  std::size_t done = 0, failed = 0, hits = 0, refused = 0;
  std::uint64_t busy_retries = 0;
  hpas::Backoff busy_backoff(retry_base_ms, retry_cap_ms, retry_seed);
  for (std::size_t i = 0; i < grid.scenarios.size(); ++i) {
    const auto& spec = grid.scenarios[i];
    const std::uint64_t id = i + 1;
    bool cached = false;
    hpas::Json outcome;
    // Submit-and-wait per scenario; `busy` answers are retried -- the
    // explicit backpressure loop the daemon's bounded admission expects.
    while (true) {
      client.submit(id, spec);
      bool retry = false;
      hpas::Json frame;
      while (true) {
        if (!client.recv(frame))
          throw hpas::SystemError("submit: server closed mid-campaign");
        if (static_cast<std::uint64_t>(frame.number_or("id", 0)) != id)
          continue;
        const std::string type = frame.string_or("type", "");
        if (type == "accepted") {
          cached = frame.bool_or("cached", false);
          continue;
        }
        if (type == "busy") {
          retry = true;
          break;
        }
        outcome = std::move(frame);
        break;
      }
      if (!retry) break;
      // Capped jittered exponential backoff on `busy`: admission pressure
      // clears on the server's schedule, not ours, and lockstep
      // resubmission from several clients would just re-create the burst.
      ++busy_retries;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          busy_backoff.next_ms()));
    }
    busy_backoff.reset();  // fresh delay ladder per scenario

    const std::string type = outcome.string_or("type", "");
    const std::string status = outcome.string_or("status", type);
    if (cached) ++hits;
    if (type == "result" && status == "done") {
      ++done;
      if (args.has("out")) {
        const hpas::Json* csv = outcome.find("metrics_csv");
        if (csv != nullptr)
          write_text_file(args.value("out") + "/" + spec.name + ".csv",
                          csv->as_string());
      }
    } else if (type == "draining") {
      ++refused;
    } else {
      ++failed;
    }
    std::printf("  %-40s %-9s%s\n", spec.name.c_str(), status.c_str(),
                cached ? "  (cached)" : "");
    if (!outcome.string_or("error", "").empty() ||
        outcome.find("message") != nullptr)
      std::fprintf(stderr, "hpas: %s: %s\n", spec.name.c_str(),
                   outcome.string_or("error",
                                     outcome.string_or("message", ""))
                       .c_str());
  }
  std::printf("submit: %zu scenario(s), %zu done, %zu failed, %zu refused, "
              "%zu cache hit(s), %llu busy retry(ies)\n",
              grid.scenarios.size(), done, failed, refused, hits,
              static_cast<unsigned long long>(busy_retries));
  return (failed == 0 && refused == 0) ? 0 : 1;
}

// Streaming ML dataset generation (bounded-memory feature extraction,
// sharded checksummed output):
//   hpas dataset grid.json --rows 100000 --shards 8 -j 8 -o data/
//   hpas dataset space.json --rows 5000 -o data/     # sampled from a space
//   hpas dataset --diagnosis -o data/                # the Fig. 9 sweep
//   hpas dataset ... -o data/ --resume               # continue a killed run
//   hpas dataset -o data/ --manifest-only            # re-verify from disk
int run_dataset_command(const std::vector<std::string>& argv) {
  hpas::CliParser parser(
      "hpas dataset",
      "generate a labeled ML dataset with streaming feature extraction, "
      "sharded CRC-framed output and a checksummed manifest");
  add_exec_flags(parser, /*threads=*/true)
      .add({.long_name = "out", .short_name = 'o', .value_name = "DIR",
            .help = "dataset directory (shards + manifest.json + journal)",
            .default_value = "dataset-out"})
      .add({.long_name = "rows", .short_name = '\0', .value_name = "N",
            .help = "rows to generate; a grid is cycled (fresh seeds per "
                    "row), a space is sampled. 0 = one row per grid entry",
            .default_value = "0"})
      .add({.long_name = "shards", .short_name = '\0', .value_name = "N",
            .help = "shard files; row i lands in shard i %% N (a layout "
                    "knob: bytes are identical at any thread count)",
            .default_value = "4"})
      .add({.long_name = "checkpoint", .short_name = '\0', .value_name = "N",
            .help = "rows per shard between durability checkpoints",
            .default_value = "1024"})
      .add({.long_name = "resume", .short_name = '\0', .value_name = "",
            .help = "adopt DIR's journaled checkpoints, re-run only the "
                    "missing rows (byte-identical to an uninterrupted run)",
            .default_value = std::nullopt})
      .add({.long_name = "manifest-only", .short_name = '\0',
            .value_name = "",
            .help = "verify DIR against its manifest (no generation); "
                    "exit 3 on any mismatch",
            .default_value = std::nullopt})
      .add({.long_name = "csv", .short_name = '\0', .value_name = "",
            .help = "also export dataset.csv (plan order)",
            .default_value = std::nullopt})
      .add({.long_name = "noise", .short_name = '\0', .value_name = "X",
            .help = "relative sensor noise on feature series",
            .default_value = "0.5"})
      .add({.long_name = "warmup", .short_name = '\0', .value_name = "TIME",
            .help = "simulated warmup excluded from the feature window",
            .default_value = "5"})
      .add({.long_name = "seed", .short_name = '\0', .value_name = "N",
            .help = "override the plan's base seed",
            .default_value = std::nullopt})
      .add({.long_name = "diagnosis", .short_name = '\0', .value_name = "",
            .help = "use the built-in diagnosis training sweep as the plan "
                    "(no grid/space file)",
            .default_value = std::nullopt})
      .add({.long_name = "variants", .short_name = '\0', .value_name = "N",
            .help = "--diagnosis: anomaly-intensity variants per app",
            .default_value = "5"});
  const auto args = parser.parse(argv);
  if (args.flag("help")) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  const hpas::runner::ExecOptions exec = exec_options(args);
  const std::string out_dir = args.value("out");

  if (args.flag("manifest-only")) {
    const auto report = hpas::dataset::verify_dataset(out_dir);
    if (report.ok) {
      std::printf("dataset %s: verified against manifest.json\n",
                  out_dir.c_str());
      return 0;
    }
    for (const auto& error : report.errors)
      std::fprintf(stderr, "hpas: dataset %s: %s\n", out_dir.c_str(),
                   error.c_str());
    return 3;
  }

  const std::uint64_t rows = hpas::flag_u64(args, "rows");
  const double warmup_s = hpas::flag_duration_seconds(args, "warmup");
  const double noise = hpas::flag_double(args, "noise");
  hpas::dataset::DatasetPlan plan;
  if (args.flag("diagnosis")) {
    if (!args.positional().empty()) {
      std::fprintf(stderr,
                   "hpas: --diagnosis uses the built-in plan; drop the "
                   "grid/space file\n");
      return 2;
    }
    hpas::ml::DiagnosisDataOptions options;
    options.variants_per_app =
        static_cast<int>(hpas::flag_u64(args, "variants"));
    options.measurement_noise = noise;
    options.warmup_s = warmup_s;
    if (args.has("seed")) options.seed = hpas::flag_u64(args, "seed");
    plan = hpas::dataset::plan_from_diagnosis(options);
  } else {
    if (args.positional().size() != 1) {
      std::fprintf(stderr,
                   "usage: hpas dataset <grid.json|space.json> [--rows N] "
                   "[--shards N] [-j N] [-o DIR]\n"
                   "       hpas dataset --diagnosis [-o DIR]\n"
                   "       hpas dataset -o DIR --manifest-only\n");
      return 2;
    }
    const hpas::Json doc =
        hpas::faultline::load_json_file(args.positional()[0]);
    if (doc.find("dimensions") != nullptr) {
      auto space = hpas::search::ScenarioSpace::from_json(doc);
      if (args.has("seed"))
        space.set_base_seed(hpas::flag_u64(args, "seed"));
      if (rows == 0)
        throw hpas::ConfigError(
            "hpas dataset: --rows is required for a scenario space");
      plan = hpas::search::plan_from_space(space, rows, warmup_s, noise,
                                           /*include_bandwidth=*/false);
    } else {
      auto grid = hpas::runner::expand_grid(doc);
      if (args.has("seed")) {
        grid.base_seed = hpas::flag_u64(args, "seed");
      }
      plan = hpas::dataset::plan_from_grid(grid, rows, warmup_s, noise,
                                           /*include_bandwidth=*/false);
    }
  }

  std::printf("dataset '%s': %zu rows x %zu features, %llu shards, "
              "%d threads\n",
              plan.name.c_str(), plan.rows.size(), plan.feature_names.size(),
              static_cast<unsigned long long>(hpas::flag_u64(args, "shards")),
              exec.threads);

  const auto on_signal = drain_on_signal(
      "draining in-flight rows (checkpointing); signal again to cancel hard",
      /*hard=*/true);

  hpas::dataset::DatasetFactoryOptions options;
  static_cast<hpas::runner::ExecOptions&>(options) = exec;
  options.out_dir = out_dir;
  options.shards = static_cast<std::uint32_t>(hpas::flag_u64(args, "shards"));
  options.checkpoint_rows = hpas::flag_u64(args, "checkpoint");
  options.resume = args.flag("resume");
  options.write_csv = args.flag("csv");

  const auto result = hpas::dataset::run_dataset_factory(plan, options);
  std::printf("dataset: %llu rows (%llu executed, %llu resumed), "
              "%llu samples streamed, peak %zu buffered values/row\n",
              static_cast<unsigned long long>(result.rows_total),
              static_cast<unsigned long long>(result.rows_executed),
              static_cast<unsigned long long>(result.rows_resumed),
              static_cast<unsigned long long>(result.samples_seen),
              result.peak_buffered_values);
  if (result.complete)
    std::printf("wrote %s\n", result.manifest_path.c_str());

  if (g_hard.cancelled()) {
    std::fprintf(stderr,
                 "hpas: dataset cancelled hard; journal is valid, resume "
                 "with: hpas dataset ... -o %s --resume\n",
                 out_dir.c_str());
    return 130;
  }
  if (!result.complete) {
    std::printf("hpas: dataset incomplete; resume with: hpas dataset ... "
                "-o %s --resume\n",
                out_dir.c_str());
    return 5;
  }
  return 0;
}

void print_catalog() {
  std::printf("%-12s %-16s %-34s %s\n", "NAME", "SUBSYSTEM", "BEHAVIOR",
              "KNOBS");
  for (const auto& info : hpas::anomalies::anomaly_catalog()) {
    std::printf("%-12s %-16s %-34s %s\n", info.name.c_str(),
                info.subsystem.c_str(), info.behavior.c_str(),
                info.knobs.c_str());
  }
  std::printf(
      "\nEvery anomaly accepts --duration, --start-delay and --seed.\n"
      "Run `hpas <anomaly> --help` for its knobs, compose instances\n"
      "with `hpas schedule <file>`, or batch simulated experiments with\n"
      "`hpas sweep <grid.json>` (deterministic parallel runner).\n");
}

int run_anomaly(const std::string& name, const std::vector<std::string>& argv) {
  const auto parser = hpas::anomalies::make_anomaly_parser(name);
  const auto args = parser.parse(argv);
  if (args.flag("help")) {
    std::fputs(parser.help_text().c_str(), stdout);
    return 0;
  }
  const auto anomaly = hpas::anomalies::make_anomaly(name, args);

  hpas::ShutdownController::instance().install();
  // request_stop is a relaxed atomic store; the callback runs on the
  // watcher thread, not in signal context, so ordinary code is fine. The
  // subscription is scoped: it dies before `anomaly` does.
  hpas::anomalies::Anomaly* const running = anomaly.get();
  ScopedShutdownSubscription stop_on_signal(
      [running](int) { running->request_stop(); });

  hpas::anomalies::RunStats stats;
  try {
    stats = anomaly->run();
  } catch (...) {
    // setup()/run() threw: still surface any structured failure records
    // gathered before the exception.
    const auto& supervision = anomaly->supervision_report();
    if (!supervision.healthy())
      std::fprintf(stderr, "hpas: %s\n", supervision.to_string().c_str());
    throw;
  }

  std::printf(
      "%s: %llu iterations, work=%.3g, active=%s, elapsed=%s\n",
      name.c_str(), static_cast<unsigned long long>(stats.iterations),
      stats.work_amount, hpas::format_seconds(stats.active_seconds).c_str(),
      hpas::format_seconds(stats.elapsed_seconds).c_str());

  // Surface worker failures: a generator that lost workers must say so
  // and exit nonzero (4) -- never a silent dead worker.
  const auto& supervision = anomaly->supervision_report();
  if (supervision.fatal() || supervision.transient_recovered > 0 ||
      supervision.failures_dropped > 0) {
    std::fprintf(stderr, "hpas: %s\n", supervision.to_string().c_str());
  }
  return supervision.fatal() ? 4 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    // Chaos-testing hook: arm a fault schedule for any subcommand. The
    // per-command --fault-schedule flag re-arms over this if both are
    // given. Unset (the normal case) this is a single getenv.
    if (const char* env = std::getenv("HPAS_FAULT_SCHEDULE");
        env != nullptr && *env != '\0')
      hpas::faultline::arm(hpas::faultline::FaultSchedule::load_file(env));
    if (args.empty() || args[0] == "--help" || args[0] == "-h" ||
        args[0] == "help") {
      std::printf("hpas - HPC Performance Anomaly Suite\n\n");
      print_catalog();
      return 0;
    }
    if (args[0] == "list") {
      print_catalog();
      return 0;
    }
    if (args[0] == "schedule") {
      return run_schedule_command({args.begin() + 1, args.end()});
    }
    if (args[0] == "sweep") {
      return run_sweep_command({args.begin() + 1, args.end()});
    }
    if (args[0] == "search") {
      return run_search_command({args.begin() + 1, args.end()});
    }
    if (args[0] == "dataset") {
      return run_dataset_command({args.begin() + 1, args.end()});
    }
    if (args[0] == "serve") {
      return run_serve_command({args.begin() + 1, args.end()});
    }
    if (args[0] == "submit") {
      return run_submit_command({args.begin() + 1, args.end()});
    }
    if (!hpas::anomalies::is_known_anomaly(args[0])) {
      std::fprintf(stderr, "hpas: unknown anomaly '%s'; try `hpas list`\n",
                   args[0].c_str());
      return 2;
    }
    return run_anomaly(args[0], {args.begin() + 1, args.end()});
  } catch (const hpas::ConfigError& e) {
    std::fprintf(stderr, "hpas: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpas: fatal: %s\n", e.what());
    return 1;
  }
}
