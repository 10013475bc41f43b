// Deterministic parallel experiment runner.
//
// Fans a SweepGrid across a WorkStealingPool: every scenario gets its own
// isolated Simulator/World (no shared mutable state between tasks) and a
// per-scenario counter-based RNG stream, runs to completion, and deposits
// its result in a slot pre-assigned by grid index. Aggregation then reads
// the slots in grid order, which is what makes the output -- per-scenario
// metric CSVs plus a JSON summary with median / p95 / %CV -- byte-identical
// at any thread count, including 1. The first failing scenario cancels the
// remaining queued work (running scenarios finish) and is reported
// deterministically (lowest grid index wins).
//
// Crash safety rides on top of the same structure: with a journal path
// set, every finished scenario writes its outputs to disk immediately and
// appends a fsync'd journal record (see journal.hpp), so a killed sweep
// resumes from the last completed scenario instead of the beginning. The
// slot then drops the published bytes, so a journaled sweep holds the
// CSVs of the running scenarios only, however large the grid. A
// Watchdog bounds each scenario's wall time, and two CancelTokens let the
// CLI drain (graceful) or abort (hard) the sweep from a signal handler.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/cancel.hpp"
#include "common/json.hpp"
#include "runner/grid.hpp"

namespace hpas::sim {
class World;
}
namespace hpas::metrics {
class SampleSink;
}

namespace hpas::runner {

/// Terminal state of one grid slot.
enum class ScenarioStatus : int {
  kNotRun = 0,    ///< dropped from the queue by a cancellation
  kDone = 1,      ///< completed; outputs are authoritative
  kFailed = 2,    ///< run_scenario threw (error holds the message)
  kTimeout = 3,   ///< watchdog hit --scenario-timeout mid-run
  kCancelled = 4, ///< interrupted mid-run by shutdown or --deadline
};

const char* scenario_status_name(ScenarioStatus status);

/// A simulated system a spec may name, with its world factory.
struct SystemPreset {
  std::string_view name;
  std::unique_ptr<sim::World> (*make_world)();
};
/// The preset named `name`; ConfigError naming every choice otherwise.
const SystemPreset& system_preset(std::string_view name);
/// "voltrino, chameleon or dragonfly1k", for messages and help texts.
std::string system_names();

/// One summary.json scenario row, also what `hpas search` replays a
/// frontier entry against. Optional members (injector failure, `error`,
/// `status`, `trace_records`) appear only when set, not kDone or nonzero.
Json summary_row_json(const ScenarioSpec& spec, double app_time_s,
                      std::uint64_t app_iterations,
                      const std::string& error = {},
                      ScenarioStatus status = ScenarioStatus::kDone,
                      std::uint64_t trace_records = 0);

/// The execution contract every pool verb (sweep, search, dataset)
/// shares: how many workers, and the two operator stop requests. The
/// verb option structs derive from it.
struct ExecOptions {
  int threads = 1;  ///< pool workers; 0 = hardware concurrency
  /// Drain request (first Ctrl-C): start no new work, let running work
  /// finish and be journaled. Observed, never cancelled. May be null.
  const CancelToken* graceful = nullptr;
  /// Abort request (second Ctrl-C): additionally cancel running work
  /// where the verb can (sweep scenarios, dataset rows). May be null.
  const CancelToken* hard = nullptr;

  /// Either token has fired.
  bool stop_requested() const {
    return (graceful != nullptr && graceful->cancelled()) ||
           (hard != nullptr && hard->cancelled());
  }
};

struct SweepOptions : ExecOptions {
  std::size_t queue_capacity = 256;  ///< backpressure bound
  bool capture_traces = false;       ///< record a per-scenario trace
  /// Wall-clock budget per scenario, seconds; 0 disables the watchdog.
  /// An over-budget scenario is cancelled cooperatively, journaled as
  /// timeout, and the sweep moves on.
  double scenario_timeout_s = 0.0;
  /// Wall-clock budget for the whole sweep, seconds; 0 = none. Past the
  /// deadline, queued scenarios are dropped and running ones cancelled.
  double deadline_s = 0.0;
  /// Path of the checkpoint journal (conventionally <out>/sweep.journal).
  /// Empty disables journaling; set, it also turns on incremental output
  /// writes (each completed scenario's files land before its record, and
  /// the result keeps none of their bytes).
  /// (`= {}` keeps `{{.threads = N}}` clear of -Wmissing-field-initializers.)
  std::string journal_path = {};
  /// With a journal: replay it first, restore scenarios whose on-disk
  /// outputs validate against their journaled digests, and run the rest.
  bool resume = false;
};

struct ScenarioResult {
  ScenarioSpec spec;
  bool ran = false;          ///< false when cancelled before starting
  ScenarioStatus status = ScenarioStatus::kNotRun;
  bool resumed = false;      ///< restored from the journal, not re-run
  std::string error;         ///< non-empty when the scenario threw
  double app_elapsed_s = 0.0;  ///< simulated app wall time (0 if no app)
  int app_iterations = 0;
  double wall_seconds = 0.0; ///< host execution time (not in summaries)
  /// Node-0 monitoring series, CSV bytes. Empty once a journaled sweep
  /// has published them as <output_dir>/<name>.csv.
  std::string metrics_csv;
  /// Serialized trace: empty unless captured, and empty once a journaled
  /// sweep has published it as <output_dir>/<name>.trace.bin.
  std::string trace_bin;
  /// Record count of the captured trace; nonzero exactly when a trace was
  /// captured (every trace holds at least the t=0 sample record).
  std::uint64_t trace_records = 0;
};

struct SweepResult {
  std::string grid_name;
  std::vector<ScenarioResult> scenarios;  ///< in grid order

  std::size_t executed = 0;   ///< scenarios actually run this invocation
  std::size_t resumed = 0;    ///< scenarios restored from the journal
  std::size_t tmp_removed = 0;      ///< orphaned *.tmp files swept on resume
  std::size_t journal_dropped = 0;  ///< damaged journal frames discarded
  bool interrupted = false;   ///< a shutdown/deadline cut the sweep short
  /// Set by a journaled sweep: the journal's directory, where every
  /// scenario's CSV and trace already lie. Empty when the outputs are
  /// held in the slots.
  std::string output_dir;

  bool ok() const;  ///< every scenario completed (status kDone)
  /// Scenarios with the given terminal status.
  std::size_t count(ScenarioStatus status) const;
  /// First error in grid order, or empty.
  std::string first_error() const;

  /// Deterministic summary: per-scenario rows plus per-anomaly and overall
  /// aggregate statistics (median / p95 / coefficient of variation %) of
  /// the app execution times. Contains nothing execution-dependent (no
  /// wall-clock, no thread count) -- byte-identical across runs. Rows gain
  /// a "status" member only when the scenario did not complete, so clean
  /// sweeps stay byte-identical to the pinned golden summaries.
  Json summary_json() const;
};

/// Which nodes' monitoring samples run_scenario() keeps in the world's
/// MetricStores. A node without a store is not polled at all.
enum class StoredNodes {
  kNone,   ///< no store; result.metrics_csv is header-only
  kNode0,  ///< node 0 only, the node every result reads
  kAll,    ///< every node (hpas-sim writes each node's CSV)
};

/// Per-run knobs of run_scenario(). None of them enters the scenario's
/// identity: the simulated world, and with it every output byte, is a
/// function of the ScenarioSpec alone.
struct RunOptions {
  /// Run under a lossless TraceCapture (attached before monitoring and
  /// injection, so the stream is complete); the result then carries the
  /// serialized binary trace.
  bool capture_trace = false;
  /// Checked between simulator events: once it fires, the run stops at
  /// the next event boundary with status kTimeout or kCancelled (per the
  /// token's reason), keeps the metrics collected so far, and -- when
  /// tracing -- ends the truncated trace with one kRunCancelled record so
  /// partial captures are self-describing. May be null.
  const CancelToken* cancel = nullptr;
  /// Invoked on the scenario's world after every run that stopped at an
  /// event boundary (done, timeout or cancelled), before the world is torn
  /// down -- the hook behind probe-based search objectives and hpas-sim's
  /// per-node CSVs. Callers that want a completed run check
  /// result.status. It must be deterministic and must not advance the
  /// simulation if the scenario's outputs are to stay reproducible.
  std::function<void(sim::World&)> inspect = {};
  /// Observes node 0's monitoring samples as they are collected
  /// (including the t=0 sample) -- the streaming dataset factory's
  /// extraction hook. Observation-only: the simulated world is
  /// bit-identical with or without a sink. May be null.
  metrics::SampleSink* sink = nullptr;
  /// The nodes whose samples are stored. kNone leaves every MetricStore
  /// empty, so a sink-only scenario runs in O(1) monitoring memory
  /// regardless of duration; an inspect hook that reads node k > 0 needs
  /// kAll.
  StoredNodes store_samples = StoredNodes::kNode0;
};

/// Runs one scenario in isolation: the single executor behind sweep,
/// search, serve, dataset and hpas-sim. Throws ConfigError when the spec
/// fails validate_spec().
ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options = {});

/// Runs the whole grid across `options.threads` workers.
SweepResult run_sweep(const SweepGrid& grid, const SweepOptions& options = {});

/// Writes `<dir>/summary.json` plus the outputs the result still holds:
/// `<dir>/<scenario>.csv` for every completed scenario and
/// `<dir>/<scenario>.trace.bin` for every captured trace (including
/// truncated traces of timed-out/cancelled scenarios); creates `dir` if
/// needed. A journaled result has published its outputs already and holds
/// none, so only summary.json is written, and `dir` must be its
/// output_dir (ConfigError otherwise). Each file is published atomically
/// (tmp, fsync, rename, directory fsync), so a failure mid-sweep never
/// leaves a partially written output behind. Throws SystemError on I/O
/// failure.
void write_outputs(const SweepResult& result, const std::string& dir);

}  // namespace hpas::runner
