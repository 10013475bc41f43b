// Figure 8: execution time of each application under each anomaly.
//
// Ported onto the deterministic parallel experiment runner: the 8 apps x
// 7 anomalies grid is expressed declaratively and fanned across the
// work-stealing pool, once at 1 thread and once at all hardware threads.
// The two sweeps must produce byte-identical summaries (the runner's
// reproducibility contract); the wall-clock ratio is the batching speedup
// the bench records as a BENCH_JSON line.
//
// Placement (mirrors the paper's node-sharing experiment): each app runs
// 4 ranks x 2 nodes spanning the two switch groups; cpuoccupy/cachecopy
// share rank 0's core, membw/memeater/memleak take a free core, and
// netoccupy streams between two *other* nodes (1 -> 5) across the same
// inter-switch trunk the app's halo exchange uses (runner::inject_anomaly
// encodes exactly this policy).
//
// Paper shape: cachecopy, cpuoccupy and membw dominate; CPU-intensive
// apps (CoMD, miniMD, SW4lite) are hit hardest by cpuoccupy/cachecopy;
// memory-intensive apps (Cloverleaf, MILC, miniAMR, miniGhost) by membw;
// memleak/memeater/netoccupy barely register (no swap; fat network).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "apps/profiles.hpp"
#include "common/stopwatch.hpp"
#include "runner/grid.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"

namespace {

hpas::runner::SweepGrid fig08_grid() {
  hpas::Json spec = hpas::Json::object();
  spec.set("name", "fig08_app_anomaly_grid");
  spec.set("system", "voltrino");
  spec.set("duration_s", 1.0e6);  // anomaly outlives every app run
  spec.set("sample_period_s", 1.0);
  spec.set("run_to_completion", true);
  hpas::Json anomalies = hpas::Json::array();
  for (const char* a : {"cachecopy", "cpuoccupy", "membw", "memeater",
                        "memleak", "netoccupy", "none"})
    anomalies.push_back(a);
  spec.set("anomalies", std::move(anomalies));
  // "apps" axis omitted: defaults to all eight proxy apps.
  return hpas::runner::expand_grid(spec);
}

}  // namespace

int main() {
  std::printf(
      "== Figure 8: application execution time (s) with each anomaly ==\n"
      "paper shape: cachecopy/cpuoccupy hit CPU-bound apps; membw hits\n"
      "memory-bound apps; memleak/memeater/netoccupy ~= none\n\n");

  const auto grid = fig08_grid();
  // At least 4 workers even on small machines: an oversubscribed pool
  // shuffles completion order the hardest, which is exactly what the
  // byte-identity check needs to be meaningful.
  const int hw_threads =
      std::max(4, hpas::runner::WorkStealingPool::default_thread_count());

  hpas::Stopwatch serial_watch;
  const auto serial = hpas::runner::run_sweep(grid, {{.threads = 1}});
  const double serial_s = serial_watch.elapsed_seconds();

  hpas::Stopwatch parallel_watch;
  const auto parallel =
      hpas::runner::run_sweep(grid, {{.threads = hw_threads}});
  const double parallel_s = parallel_watch.elapsed_seconds();

  // Third sweep with per-scenario trace capture at the same thread count:
  // parallel_s vs traced_s is the tracing on/off overhead the BENCH_JSON
  // line records (disabled tracing must stay free; enabled capture of the
  // full event stream is expected to cost, and this quantifies it).
  hpas::runner::SweepOptions traced_options;
  traced_options.threads = hw_threads;
  traced_options.capture_traces = true;
  hpas::Stopwatch traced_watch;
  const auto traced = hpas::runner::run_sweep(grid, traced_options);
  const double traced_s = traced_watch.elapsed_seconds();

  if (!serial.ok() || !parallel.ok() || !traced.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 (!serial.ok()   ? serial
                  : !parallel.ok() ? parallel
                                   : traced)
                     .first_error()
                     .c_str());
    return 1;
  }
  const bool identical =
      serial.summary_json().dump(2) == parallel.summary_json().dump(2);
  std::uint64_t trace_records = 0;
  bool traces_captured = true;
  for (const auto& s : traced.scenarios) {
    trace_records += s.trace_records;
    traces_captured = traces_captured && !s.trace_bin.empty();
  }

  // App-time table, row per app, column per anomaly (grid order is
  // app-major so results regroup directly).
  std::map<std::string, std::map<std::string, double>> time;
  for (const auto& s : parallel.scenarios)
    time[s.spec.app][s.spec.anomaly] = s.app_elapsed_s;

  const std::vector<std::string> anomalies = {
      "cachecopy", "cpuoccupy", "membw", "memeater",
      "memleak",   "netoccupy", "none"};
  std::printf("%-12s", "app");
  for (const auto& anomaly : anomalies)
    std::printf(" %10s", anomaly.c_str());
  std::printf("\n");

  bool shape_ok = true;
  for (const auto& app : hpas::apps::proxy_apps()) {
    const auto& row = time[app.name];
    std::printf("%-12s", app.name.c_str());
    for (const auto& anomaly : anomalies)
      std::printf(" %10.1f", row.at(anomaly));
    std::printf("\n");

    // Per-app shape: cachecopy worst, then cpuoccupy; memleak/memeater/
    // netoccupy indistinguishable from none; membw only hurts the
    // memory-intensive apps.
    shape_ok = shape_ok && row.at("cachecopy") > row.at("cpuoccupy") &&
               row.at("cpuoccupy") > 1.5 * row.at("none");
    for (const char* benign : {"memeater", "memleak", "netoccupy"})
      shape_ok = shape_ok && row.at(benign) < 1.05 * row.at("none");
    if (app.memory_intensive) {
      shape_ok = shape_ok && row.at("membw") > 1.15 * row.at("none");
    } else {
      shape_ok = shape_ok && row.at("membw") < 1.10 * row.at("none");
    }
  }

  std::printf("\nrunner: %zu scenarios  serial %.2fs  %d-thread %.2fs  "
              "speedup %.2fx  outputs %s\n",
              grid.scenarios.size(), serial_s, hw_threads, parallel_s,
              serial_s / parallel_s,
              identical ? "byte-identical" : "DIVERGED");
  std::printf("tracing: off %.2fs  on %.2fs (%.2fx, %llu records)\n",
              parallel_s, traced_s, traced_s / parallel_s,
              static_cast<unsigned long long>(trace_records));
  std::printf(
      "BENCH_JSON {\"bench\":\"fig08_app_anomaly_grid\",\"scenarios\":%zu,"
      "\"serial_s\":%.3f,\"parallel_s\":%.3f,\"threads\":%d,"
      "\"speedup\":%.2f,\"byte_identical\":%s,"
      "\"trace_off_s\":%.3f,\"trace_on_s\":%.3f,\"trace_overhead\":%.2f,"
      "\"trace_records\":%llu}\n",
      grid.scenarios.size(), serial_s, parallel_s, hw_threads,
      serial_s / parallel_s, identical ? "true" : "false", parallel_s,
      traced_s, traced_s / parallel_s,
      static_cast<unsigned long long>(trace_records));
  std::printf("shape check: %s\n",
              shape_ok && identical && traces_captured ? "OK" : "FAILED");
  return shape_ok && identical && traces_captured ? 0 : 1;
}
