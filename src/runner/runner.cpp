#include "runner/runner.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "faultline/durable.hpp"
#include "metrics/csv.hpp"
#include "runner/journal.hpp"
#include "runner/thread_pool.hpp"
#include "runner/watchdog.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/tracer.hpp"

namespace hpas::runner {
namespace {

/// Anomaly placement mirrors the paper's node-sharing experiment (see
/// bench/fig08): the busy anomalies (cpuoccupy, cachecopy) share rank 0's
/// core -- the orphan-process / hyperthread scenario -- while the
/// footprint and I/O anomalies take the first core the app does not use.
/// netoccupy streams between two non-app nodes across the inter-switch
/// trunk the app's halo exchange crosses.
///
/// An explicit placement (spec.anomaly_node/core) bypasses the policy and
/// injects the catalog generator on that node and core as given.
std::vector<sim::Task*> inject_anomaly(sim::World& world,
                                       const ScenarioSpec& spec,
                                       Rng& stream) {
  if (spec.anomaly == "none") return {};
  const double duration = spec.duration_s;
  const double intensity = spec.intensity;
  if (spec.anomaly_node >= 0)
    return simanom::inject_by_name(world, spec.anomaly, spec.anomaly_node,
                                   spec.anomaly_core, duration, intensity);
  const int busy_core = 0;
  const int free_core = spec.ranks_per_node;

  if (spec.anomaly == "cpuoccupy") {
    return {simanom::inject_cpuoccupy(
        world, 0, busy_core, 100.0 * std::min(intensity, 1.0), duration)};
  }
  if (spec.anomaly == "cachecopy") {
    return {simanom::inject_cachecopy(world, 0, busy_core,
                                      simanom::SimCacheLevel::kL3, intensity,
                                      duration)};
  }
  if (spec.anomaly == "membw") {
    return {simanom::inject_membw(world, 0, free_core, duration,
                                  std::clamp(intensity, 0.05, 1.0))};
  }
  if (spec.anomaly == "netoccupy") {
    const int n = world.num_nodes();
    int src = 1 % n;
    int dst = (1 + n / 2) % n;
    if (src == dst) { src = 0; dst = n - 1; }
    return simanom::inject_netoccupy(world, src, dst, /*ntasks=*/2,
                                     intensity * 100.0 * 1024 * 1024,
                                     duration);
  }
  if (spec.anomaly == "os_jitter") {
    // The jitter daemon's gap sequence is the scenario's random stream in
    // action: same seed => same storm, regardless of the worker thread.
    return {simanom::inject_os_jitter(world, 0, free_core,
                                      /*burst_s=*/0.002 * intensity,
                                      /*mean_gap_s=*/0.05, duration,
                                      stream.next())};
  }
  return simanom::inject_by_name(world, spec.anomaly, /*node=*/0, free_core,
                                 duration, intensity);
}

void append_stats_members(Json& obj, const std::vector<double>& xs) {
  obj.set("count", static_cast<double>(xs.size()));
  if (xs.empty()) return;
  const double m = mean(xs);
  const double cv = m != 0.0 ? 100.0 * stddev(xs) / m : 0.0;
  obj.set("median_s", median(xs));
  obj.set("p95_s", percentile(xs, 95.0));
  obj.set("cv_pct", cv);
}

/// Outputs are named by journal records, so they share its fault domain.
void write_output(const std::string& path, const std::string& bytes) {
  faultline::write_file_atomic(faultline::Domain::kJournal, path, bytes);
}

/// A crashed sweep can leave `*.tmp` siblings from interrupted atomic
/// writes; they are never valid outputs, so --resume sweeps them first.
std::size_t remove_orphaned_tmp_files(const std::string& dir) {
  std::size_t removed = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".tmp") continue;
    std::error_code ignored;
    if (std::filesystem::remove(entry.path(), ignored)) ++removed;
  }
  return removed;
}

JournalStatus to_journal_status(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kDone: return JournalStatus::kDone;
    case ScenarioStatus::kTimeout: return JournalStatus::kTimeout;
    case ScenarioStatus::kFailed: return JournalStatus::kFailed;
    case ScenarioStatus::kNotRun:
    case ScenarioStatus::kCancelled: break;
  }
  return JournalStatus::kCancelled;
}

JournalRecord make_journal_record(const ScenarioResult& s) {
  JournalRecord rec;
  rec.key_hash = scenario_key_hash(s.spec);
  rec.status = to_journal_status(s.status);
  rec.name = s.spec.name;
  rec.output = s.spec.name + ".csv";
  if (s.status == ScenarioStatus::kDone) rec.csv_crc = crc32(s.metrics_csv);
  if (!s.trace_bin.empty()) rec.trace_crc = crc32(s.trace_bin);
  rec.trace_records = s.trace_records;
  rec.app_iterations = static_cast<std::uint64_t>(s.app_iterations);
  rec.app_elapsed_s = s.app_elapsed_s;
  rec.wall_seconds = s.wall_seconds;
  rec.error = s.error;
  return rec;
}

constexpr std::array<SystemPreset, 3> kSystems{{
    {"voltrino", [] { return sim::make_voltrino_world(); }},
    {"chameleon", [] { return sim::make_chameleon_world(); }},
    {"dragonfly1k", [] { return sim::make_dragonfly_world(); }},
}};

}  // namespace

const char* scenario_status_name(ScenarioStatus status) {
  switch (status) {
    case ScenarioStatus::kNotRun: return "not_run";
    case ScenarioStatus::kDone: return "done";
    case ScenarioStatus::kFailed: return "failed";
    case ScenarioStatus::kTimeout: return "timeout";
    case ScenarioStatus::kCancelled: return "cancelled";
  }
  return "unknown";
}

std::string system_names() {
  std::string names;
  for (const SystemPreset& p : kSystems)
    names += (names.empty() ? "" : &p == &kSystems.back() ? " or " : ", ") +
             std::string(p.name);
  return names;
}

const SystemPreset& system_preset(std::string_view name) {
  for (const SystemPreset& preset : kSystems)
    if (preset.name == name) return preset;
  throw ConfigError("unknown system '" + std::string(name) + "' (expected " +
                    system_names() + ")");
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options) {
  validate_spec(spec);
  ScenarioResult result;
  result.spec = spec;

  auto world = system_preset(spec.system).make_world();
  const int num_nodes = world->num_nodes();
  if (spec.app_nodes > num_nodes)
    throw ConfigError("run_scenario: app_nodes exceeds the " + spec.system +
                      " preset's " + std::to_string(num_nodes) + " nodes");

  // Tracing attaches before monitoring/injection so the captured stream
  // covers every event the scenario generates.
  std::optional<trace::TraceCapture> capture;
  if (options.capture_trace) {
    capture.emplace();
    world->attach_tracer(&capture->tracer());
  }
  if (options.store_samples == StoredNodes::kNode0) world->set_store_node(0);
  world->enable_monitoring(spec.sample_period_s, options.sink,
                           /*sink_node=*/0,
                           options.store_samples != StoredNodes::kNone);
  world->set_cancel_token(options.cancel);

  try {
    Rng stream(spec.seed);
    const auto injected = inject_anomaly(*world, spec, stream);
    if (spec.injector_fail_at_s > 0.0 && !injected.empty()) {
      simanom::schedule_injector_failure(*world, injected,
                                         spec.injector_fail_at_s,
                                         spec.injector_fail_tasks);
    }

    if (spec.app != "none") {
      apps::AppSpec app_spec = apps::app_by_name(spec.app);
      apps::BspApp::Placement placement;
      const int stride = num_nodes / spec.app_nodes;
      for (int i = 0; i < spec.app_nodes; ++i)
        placement.nodes.push_back(i * stride);
      placement.ranks_per_node = spec.ranks_per_node;
      placement.first_core = 0;
      if (spec.run_to_completion) {
        apps::BspApp app(*world, app_spec, placement);
        result.app_elapsed_s = app.run_to_completion();
        result.app_iterations = app.completed_iterations();
      } else {
        app_spec.iterations = 1000000;  // runs past the window; we observe
        apps::BspApp app(*world, app_spec, placement);
        world->run_until(spec.duration_s);
        result.app_elapsed_s =
            app.finished() ? app.elapsed() : spec.duration_s;
        result.app_iterations = app.completed_iterations();
      }
    } else {
      world->run_until(spec.duration_s);
    }
    result.status = ScenarioStatus::kDone;
  } catch (const CancelledError& e) {
    // The run stopped at an event boundary; the monitoring samples and
    // trace records collected so far are still consistent, so keep them.
    // A kRunCancelled record closes the truncated trace, making the
    // partial capture self-describing.
    result.status = e.reason() == CancelReason::kTimeout
                        ? ScenarioStatus::kTimeout
                        : ScenarioStatus::kCancelled;
    if (capture) {
      capture->tracer().set_time(world->now());
      capture->tracer().emit(trace::RecordKind::kRunCancelled, 0,
                             static_cast<std::uint16_t>(e.reason()), 0,
                             world->now());
    }
  }

  if (options.inspect) options.inspect(*world);

  std::ostringstream csv;
  metrics::write_csv(csv, world->node_store(0));
  result.metrics_csv = csv.str();
  if (capture) {
    const trace::TraceFile file = capture->take();
    result.trace_records = static_cast<std::uint64_t>(file.records.size());
    std::ostringstream bin(std::ios::binary);
    trace::write_binary(bin, file);
    result.trace_bin = bin.str();
  }
  result.ran = true;
  return result;
}

SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options) {
  SweepResult result;
  result.grid_name = grid.name;
  result.scenarios.resize(grid.scenarios.size());

  // --- resume: restore journaled scenarios whose outputs validate -------
  std::vector<char> restored(grid.scenarios.size(), 0);
  std::unique_ptr<JournalWriter> journal;
  std::string out_dir;
  if (!options.journal_path.empty()) {
    out_dir =
        std::filesystem::path(options.journal_path).parent_path().string();
    if (out_dir.empty()) out_dir = ".";
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec)
      throw SystemError("run_sweep: cannot create output directory: " +
                        out_dir);
    std::vector<JournalRecord> keep;
    if (options.resume) {
      result.tmp_removed = remove_orphaned_tmp_files(out_dir);
      JournalReadResult read = read_journal(options.journal_path);
      result.journal_dropped = read.dropped_frames;
      // Last record per key wins: a re-run after a timeout supersedes the
      // timeout record.
      std::unordered_map<std::uint64_t, const JournalRecord*> by_key;
      for (const JournalRecord& r : read.records) by_key[r.key_hash] = &r;
      for (std::size_t i = 0; i < grid.scenarios.size(); ++i) {
        const ScenarioSpec& spec = grid.scenarios[i];
        const auto it = by_key.find(scenario_key_hash(spec));
        if (it == by_key.end() || it->second->status != JournalStatus::kDone)
          continue;
        const JournalRecord& rec = *it->second;
        // Trust nothing the journal says about outputs until the bytes on
        // disk digest to the journaled CRCs; any mismatch (deleted file,
        // truncated write, manual edit) re-runs the scenario.
        std::optional<std::string> csv =
            faultline::read_file(out_dir + "/" + rec.output);
        if (!csv || crc32(*csv) != rec.csv_crc) continue;
        std::optional<std::string> trace_bin;
        if (rec.trace_crc != 0) {
          trace_bin =
              faultline::read_file(out_dir + "/" + spec.name + ".trace.bin");
          if (!trace_bin || crc32(*trace_bin) != rec.trace_crc) continue;
        }
        // The validated bytes stay on disk; the slot keeps no copy.
        ScenarioResult& s = result.scenarios[i];
        s.spec = spec;
        s.ran = true;
        s.status = ScenarioStatus::kDone;
        s.resumed = true;
        s.app_elapsed_s = rec.app_elapsed_s;
        s.app_iterations = static_cast<int>(rec.app_iterations);
        s.wall_seconds = rec.wall_seconds;
        s.trace_records = rec.trace_records;
        restored[i] = 1;
        keep.push_back(rec);
        ++result.resumed;
      }
    }
    // Rewriting with only the validated records self-heals a torn tail
    // and drops stale failure/timeout records for scenarios about to
    // re-run.
    journal = std::make_unique<JournalWriter>(options.journal_path,
                                              /*truncate=*/true);
    for (const JournalRecord& rec : keep) journal->append(rec);
    result.output_dir = out_dir;
  }

  WorkStealingPool pool(
      {.threads = options.threads, .queue_capacity = options.queue_capacity});

  // --- cancellation plumbing -------------------------------------------
  // Every scenario's token is a child of the sweep's, which is a child of
  // the caller's hard token: an abort or the sweep deadline reaches every
  // running scenario through one cancel(), and the watchdog's per-scenario
  // timeout reaches just one. Queued scenarios check for a stop when they
  // start, so a drain or abort leaves them kNotRun.
  CancelToken sweep_token(options.hard);
  const auto stop_requested = [&] {
    return options.stop_requested() || sweep_token.cancelled();
  };
  std::atomic<bool> interrupted{false};

  // Declared after sweep_token, which its callbacks reference: the
  // destructor joins the monitor thread before the token goes away.
  std::optional<Watchdog> watchdog;
  if (options.scenario_timeout_s > 0.0 || options.deadline_s > 0.0)
    watchdog.emplace();
  if (options.deadline_s > 0.0)
    watchdog->arm(options.deadline_s, [&sweep_token] {
      sweep_token.cancel(CancelReason::kDeadline);
    });

  std::mutex journal_mu;
  std::atomic<std::size_t> executed{0};
  for (std::size_t i = 0; i < grid.scenarios.size(); ++i) {
    if (restored[i]) continue;
    if (stop_requested()) {
      interrupted.store(true, std::memory_order_relaxed);
      break;
    }
    if (pool.cancelled()) break;
    // Each task owns slot i exclusively; no result ordering depends on
    // scheduling, so thread count cannot leak into the output.
    pool.submit([&, i] {
      if (stop_requested()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      // Shared with the watchdog callback, which may still be running
      // after disarm() returns.
      auto token = std::make_shared<CancelToken>(&sweep_token);
      std::uint64_t wd_id = 0;
      if (options.scenario_timeout_s > 0.0)
        wd_id = watchdog->arm(options.scenario_timeout_s,
                              [token] { token->cancel(CancelReason::kTimeout); });
      const auto t0 = std::chrono::steady_clock::now();
      ScenarioResult& slot = result.scenarios[i];
      try {
        slot = run_scenario(grid.scenarios[i],
                            {.capture_trace = options.capture_traces,
                             .cancel = token.get()});
      } catch (const std::exception& e) {
        slot.spec = grid.scenarios[i];
        slot.ran = true;
        slot.status = ScenarioStatus::kFailed;
        slot.error = e.what();
        pool.request_cancel();
      }
      if (options.scenario_timeout_s > 0.0) watchdog->disarm(wd_id);
      if (slot.status == ScenarioStatus::kCancelled)
        interrupted.store(true, std::memory_order_relaxed);
      slot.wall_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      executed.fetch_add(1, std::memory_order_relaxed);
      if (journal) {
        // Checkpoint order: outputs first (durably: fsync, rename,
        // directory fsync), then the journal record, so a "done" record
        // always refers to files that already exist on disk. A crash
        // between the two re-runs the scenario -- safe, just not free.
        if (slot.status == ScenarioStatus::kDone)
          write_output(out_dir + "/" + slot.spec.name + ".csv",
                       slot.metrics_csv);
        if (!slot.trace_bin.empty())
          write_output(out_dir + "/" + slot.spec.name + ".trace.bin",
                       slot.trace_bin);
        {
          std::lock_guard<std::mutex> lock(journal_mu);
          journal->append(make_journal_record(slot));
        }
        // Published: write_outputs never writes these files again, so the
        // slot lets go of the bytes. Swapping frees the buffers; assigning
        // an empty string would keep their capacity.
        std::string().swap(slot.metrics_csv);
        std::string().swap(slot.trace_bin);
      }
    });
  }
  pool.wait_idle();

  // Slots cancelled before starting keep ran == false; give them their
  // spec so reports stay readable.
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    if (!result.scenarios[i].ran)
      result.scenarios[i].spec = grid.scenarios[i];
  }
  result.executed = executed.load();
  result.interrupted = interrupted.load();
  return result;
}

bool SweepResult::ok() const {
  for (const ScenarioResult& s : scenarios)
    if (s.status != ScenarioStatus::kDone) return false;
  return true;
}

std::size_t SweepResult::count(ScenarioStatus status) const {
  std::size_t n = 0;
  for (const ScenarioResult& s : scenarios)
    if (s.status == status) ++n;
  return n;
}

std::string SweepResult::first_error() const {
  for (const ScenarioResult& s : scenarios) {
    if (!s.error.empty()) return s.spec.name + ": " + s.error;
    if (s.status != ScenarioStatus::kDone)
      return s.spec.name + ": " + scenario_status_name(s.status);
  }
  return {};
}

Json summary_row_json(const ScenarioSpec& spec, double app_time_s,
                      std::uint64_t app_iterations, const std::string& error,
                      ScenarioStatus status, std::uint64_t trace_records) {
  Json row = Json::object();
  row.set("name", spec.name);
  row.set("app", spec.app);
  row.set("anomaly", spec.anomaly);
  row.set("intensity", spec.intensity);
  // 64-bit seeds do not round-trip through JSON doubles; keep exact.
  row.set("seed", std::to_string(spec.seed));
  if (spec.injector_fail_at_s > 0.0) {
    row.set("injector_fail_at_s", spec.injector_fail_at_s);
    row.set("injector_fail_tasks",
            static_cast<double>(spec.injector_fail_tasks));
  }
  if (!error.empty()) row.set("error", error);
  if (status != ScenarioStatus::kDone)
    row.set("status", scenario_status_name(status));
  row.set("app_time_s", app_time_s);
  row.set("iterations", static_cast<double>(app_iterations));
  if (trace_records != 0)
    row.set("trace_records", static_cast<double>(trace_records));
  return row;
}

Json SweepResult::summary_json() const {
  Json doc = Json::object();
  doc.set("grid", grid_name);
  doc.set("scenario_count", static_cast<double>(scenarios.size()));

  Json rows = Json::array();
  for (const ScenarioResult& s : scenarios)
    rows.push_back(summary_row_json(
        s.spec, s.app_elapsed_s, static_cast<std::uint64_t>(s.app_iterations),
        s.error, s.status, s.trace_records));
  doc.set("scenarios", std::move(rows));

  // Aggregates in the spirit of a bench harness: median / p95 / %CV of
  // the app execution times, per anomaly (first-appearance order) and
  // overall. Only completed scenarios contribute -- a timed-out run's
  // partial app time would poison the statistics.
  std::vector<std::string> anomaly_order;
  std::vector<double> all_times;
  for (const ScenarioResult& s : scenarios) {
    if (s.status != ScenarioStatus::kDone || s.spec.app == "none") continue;
    if (std::find(anomaly_order.begin(), anomaly_order.end(),
                  s.spec.anomaly) == anomaly_order.end())
      anomaly_order.push_back(s.spec.anomaly);
    all_times.push_back(s.app_elapsed_s);
  }
  Json groups = Json::array();
  for (const std::string& anomaly : anomaly_order) {
    std::vector<double> times;
    for (const ScenarioResult& s : scenarios) {
      if (s.status == ScenarioStatus::kDone && s.spec.app != "none" &&
          s.spec.anomaly == anomaly)
        times.push_back(s.app_elapsed_s);
    }
    Json group = Json::object();
    group.set("anomaly", anomaly);
    append_stats_members(group, times);
    groups.push_back(std::move(group));
  }
  doc.set("by_anomaly", std::move(groups));

  Json overall = Json::object();
  append_stats_members(overall, all_times);
  doc.set("overall", std::move(overall));
  return doc;
}

void write_outputs(const SweepResult& result, const std::string& dir) {
  std::error_code ec;
  // A journaled sweep published its outputs next to its journal; a
  // summary anywhere else would describe files that are not there.
  if (!result.output_dir.empty() &&
      !std::filesystem::equivalent(result.output_dir, dir, ec))
    throw ConfigError("write_outputs: the sweep published its outputs in " +
                      result.output_dir + ", not " + dir);
  std::filesystem::create_directories(dir, ec);
  if (ec) throw SystemError("cannot create output directory: " + dir);

  for (const ScenarioResult& s : result.scenarios) {
    // A CSV always holds its header, so an empty one has been published.
    if (s.status == ScenarioStatus::kDone && !s.metrics_csv.empty())
      write_output(dir + "/" + s.spec.name + ".csv", s.metrics_csv);
    // Truncated traces of timed-out/cancelled scenarios are still written:
    // they end in kRunCancelled and are the primary debugging artifact for
    // "why did this grid point hang".
    if (s.ran && !s.trace_bin.empty())
      write_output(dir + "/" + s.spec.name + ".trace.bin", s.trace_bin);
  }
  write_output(dir + "/summary.json", result.summary_json().dump(2));
}

}  // namespace hpas::runner
