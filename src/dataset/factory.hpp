// Streaming dataset factory: the one producer of labeled feature rows.
//
// A *plan* is the complete, ordered description of every labeled row the
// dataset will contain -- which scenario to simulate, which class label
// it gets, and a stable per-row key hash. Three planners feed it:
//
//   plan_from_diagnosis  the ML training sweep (classes x apps x
//                        variants, paper Sec. 5.1), labels = anomaly
//                        classes;
//   plan_from_grid       a sweep grid, cycled until --rows rows (cycle
//                        c re-derives every scenario's seed from
//                        (base_seed, row index), so repeats are fresh
//                        draws, not copies), labels = anomaly names in
//                        first-appearance order;
//   search::plan_from_space  --rows i.i.d. samples from a typed scenario
//                        space, materialized through the space's
//                        point-identity contract (search/space.hpp).
//
// Every row runs through one row function: it simulates a fresh world
// with a StreamingFeatureExtractor attached as the monitoring SampleSink
// and MetricStores disabled, so peak memory per in-flight row is
// O(feature_metrics x window) -- independent of scenario duration. Each
// row is a pure function of the plan, and the rows fan across a
// WorkStealingPool into one of two outputs:
//
//   run_dataset_factory  durable, sharded, checksummed DatasetWriter
//                        files; byte-identical at any thread count and
//                        across --resume;
//   build_dataset        an in-memory ml::Dataset in plan order (the
//                        training input of fig09, the ablations and the
//                        evade-diagnosis objective); bit-identical at any
//                        thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/shards.hpp"
#include "ml/dataset.hpp"
#include "ml/diagnosis.hpp"
#include "runner/runner.hpp"

namespace hpas::dataset {

/// One planned labeled row.
struct DatasetRowSpec {
  enum class Kind : int { kGrid = 0, kDiagnosis = 1 };
  Kind kind = Kind::kGrid;
  runner::ScenarioSpec spec;   ///< kGrid: the scenario to simulate
  ml::DiagnosisRunPlan diag;   ///< kDiagnosis: the planned training run
  int label = 0;               ///< class index
  std::uint64_t key_hash = 0;  ///< stable row identity (digest input)
};

struct DatasetPlan {
  std::string name = "dataset";
  std::vector<DatasetRowSpec> rows;
  std::vector<std::string> class_names;
  std::vector<std::string> feature_names;
  /// Execution parameters shared by every row.
  ml::DiagnosisDataOptions diag_options;  ///< kDiagnosis rows' world setup
  double warmup_s = 5.0;   ///< feature window = [warmup, duration+0.5)
  double noise = 0.5;      ///< relative sensor noise (see diagnosis)
  bool include_bandwidth = false;  ///< adds the DRAM counter feature

  /// Stable digest of the whole plan (row count, feature/class shape,
  /// every row's key hash) -- the journal plan-header identity that
  /// --resume validates. Shard count and thread count are layout /
  /// execution knobs and deliberately excluded.
  std::uint64_t digest() const;

  /// The plan's shard-file metadata.
  DatasetMeta meta(std::uint32_t shards) const;

  /// Class label of `anomaly`, appending it to class_names on first sight
  /// (deterministic: plans are built serially).
  int label_of(const std::string& anomaly);

  /// Appends `spec` as scenario row r = rows.size(): suffixes its name
  /// with "#r", labels it by anomaly and keys it by (r, scenario key
  /// hash). Throws ConfigError when the scenario ends before the feature
  /// warmup does.
  void add_scenario_row(const runner::ScenarioSpec& spec);
};

/// An empty plan with the given execution parameters and the matching
/// diagnosis feature names; the planners below start from it.
DatasetPlan make_plan(std::string name, double warmup_s, double noise,
                      bool include_bandwidth);

/// Diagnosis training sweep as a plan; rows == plan_diagnosis_runs order.
DatasetPlan plan_from_diagnosis(const ml::DiagnosisDataOptions& options);

/// Cycles `grid` until `rows` rows. Labels are the grid's anomaly names
/// in first-appearance order. Scenario seeds are re-derived per row from
/// (grid.base_seed, row index): cycling is oversampling with fresh
/// streams, not duplication.
DatasetPlan plan_from_grid(const runner::SweepGrid& grid, std::uint64_t rows,
                           double warmup_s, double noise,
                           bool include_bandwidth);

/// A stop request (graceful or hard) starts no new rows and checkpoints
/// what finished; a later --resume completes the dataset byte-identically.
/// `hard` also cancels rows mid-simulation (their partial features are
/// discarded, never written).
struct DatasetFactoryOptions : runner::ExecOptions {
  std::string out_dir;
  std::uint32_t shards = 4;
  std::uint64_t checkpoint_rows = 1024;
  bool resume = false;
  bool write_csv = false;
};

struct DatasetFactoryResult {
  std::uint64_t rows_total = 0;
  std::uint64_t rows_executed = 0;  ///< simulated this invocation
  std::uint64_t rows_resumed = 0;   ///< adopted from durable checkpoints
  bool complete = false;            ///< all rows written, manifest present
  bool interrupted = false;         ///< a cancel token cut the run short
  std::string manifest_path;        ///< empty unless complete
  /// Peak retained doubles in any single row's extractor -- the bounded-
  /// memory claim under test (O(metrics x window), not O(duration)).
  std::size_t peak_buffered_values = 0;
  std::uint64_t samples_seen = 0;  ///< total monitoring samples streamed
};

/// Executes the plan into sharded files. Throws ConfigError when resuming
/// against a changed plan; propagates the lowest-indexed row failure.
DatasetFactoryResult run_dataset_factory(const DatasetPlan& plan,
                                         const DatasetFactoryOptions& options);

/// Executes the plan in memory on `threads` workers (0 = hardware
/// concurrency): row i of the result is plan row i, with the plan's class
/// and feature names. Every value equals the one run_dataset_factory
/// writes for the same row.
ml::Dataset build_dataset(const DatasetPlan& plan, int threads);

}  // namespace hpas::dataset
