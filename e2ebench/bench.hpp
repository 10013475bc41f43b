// Shared plumbing of the end-to-end benchmark: options, the metric report,
// statistics, and the per-layer summary computed from traced spans.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hooks.hpp"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the smoke test; never used for measurements.
  bool tiny = false;
};

/// Scratch directory, relative to the working directory (the checkout
/// root): keeps the server's socket path short.
inline constexpr const char* kWorkDir = ".bench_work";
/// Worker threads of run_sweep / run_dataset_factory (`-j 4`).
inline constexpr int kThreads = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: the metrics plus pass/fail accounting.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines

  void add(std::string name, double value, std::string unit);
  /// Records a correctness check; a failing one makes the run incorrect.
  void check(bool ok, const std::string& what);
  void note(const std::string& line);
};

Report run_sweep_sim(const Options& opt);
Report run_dataset_stream(const Options& opt);
Report run_serve_mix(const Options& opt);

/// Seeded-input vocabulary: the proxy apps and the anomaly kinds ("none"
/// plus the eight generators of Table 1). Tiny mode keeps a few of each.
std::vector<std::string> app_names(bool tiny);
std::vector<std::string> anomaly_kinds(bool tiny);
/// Rounds to 3 decimals so seeded knobs stay readable in grid files.
double round3(double x);

/// Arms faultline with an empty schedule (counts calls, injects nothing)
/// and, on stop(), adds its counters and the fsyncs made in between to
/// the totals and disarms.
struct FaultCounter {
  std::uint64_t calls = 0;
  std::uint64_t crash_points = 0;
  std::uint64_t fsyncs = 0;
  void start();
  void stop();

 private:
  std::uint64_t fsyncs_at_start_ = 0;
};

/// Measured-round loop shared by sweep_sim and dataset_stream. `round`
/// runs one round and returns its timed seconds; the first call is an
/// unrecorded warm-up that lets idle CPUs, allocators and the page cache
/// settle. Untraced runs never
/// trace. Traced runs alternate untraced and traced rounds (starting
/// untraced), so trace.overhead_frac compares rounds of one process on
/// one seed; faultline counts only traced rounds.
enum class Phase { kWarmup, kUntraced, kTraced };
struct Rounds {
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  FaultCounter faults;
  double overhead_frac() const;
  double traced_wall_s() const;
};
Rounds run_rounds(const Options& opt,
                  const std::function<double(Phase)>& round);

double seconds_since(std::int64_t start_ns);
double median_of(const std::vector<double>& xs);
/// hpas::percentile (linear interpolation), or 0 for an empty sample.
double percentile_of(const std::vector<double>& xs, double pct);
double peak_rss_mb();
std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& bytes);
/// Removes and recreates `dir`.
void fresh_dir(const std::string& dir);

/// Adds "setup_s" as the trimmed mean (middle 80%) of the repeated
/// set-ups and a note listing them. `setup_s` must not be empty.
void add_setup(Report& r, const std::vector<double>& setup_s);

/// Adds "<prefix>_ms_p50" and "<prefix>_ms_p99" and a note with the sample
/// count and whether p99 has the ten samples beyond it that make it
/// meaningful.
void add_latency(Report& r, const std::string& prefix,
                 const std::vector<double>& ms);

/// Per-layer totals of a traced run.
struct LayerTotals {
  std::vector<Span> spans;
  std::uint64_t count[kLayerCount] = {};
  double self_s[kLayerCount] = {};
  std::uint64_t sum_count[kLayerCount] = {};  ///< Σ Span::count
  std::vector<double> dur_ms[kLayerCount];    ///< per-span durations
};
LayerTotals summarize(std::vector<Span> spans);

/// Workload-specific quantities the generic per-layer metrics need.
struct TraceContext {
  double traced_wall_s = 0.0;   ///< wall time of the traced rounds
  double traced_items = 0.0;    ///< items completed in the traced rounds
  double overhead_frac = 0.0;   ///< traced ÷ untraced − 1, same seed
  int threads = 1;              ///< worker threads during traced rounds
  FaultCounter faults;  ///< faultline and fsync counts of traced rounds
  double dataset_bytes_per_row = 0.0;
  std::string spans_path;  ///< where the per-item table is written
};

/// Adds every generic per-layer metric (sim.*, metrics.*, dataset.*,
/// runner.*, faultline.*, io.*, trace.*) computed from `totals`; layers a
/// workload does not touch report 0. Counts are per item (divided by
/// ctx.traced_items), so they do not grow with throughput. Writes the
/// per-item accounting table (wall time, per-layer self time, covered
/// share) to ctx.spans_path.
void add_layer_metrics(Report& r, const LayerTotals& totals,
                       const TraceContext& ctx);

/// Server metrics that only serve_mix measures; other workloads call
/// this with zeros so every run prints every per-layer metric. The
/// counters are Server::stats() differences over the traced windows and
/// are reported as shares of the submissions.
struct ServerLayer {
  std::vector<double> ack_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  std::vector<double> cache_open_ms;  ///< one per traced Server::start
  std::uint64_t submissions = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t executed = 0;
  std::uint64_t busy_rejected = 0;
};
void add_server_metrics(Report& r, const LayerTotals& totals,
                        const ServerLayer& server);

}  // namespace e2e
