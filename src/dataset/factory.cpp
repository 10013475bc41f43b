#include "dataset/factory.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "dataset/streaming.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "runner/thread_pool.hpp"
#include "sim/world.hpp"

namespace hpas::dataset {
namespace {

constexpr std::uint64_t kPlanSeed = 0x4450534554504c4eULL;  // "DPSETPLN"
constexpr std::uint64_t kRowSeed = 0x44535452ULL;           // "DSTR"
constexpr std::uint64_t kNoiseStream = 0x4e6f697365ULL;     // "Noise"

StreamingExtractorConfig extractor_config(bool include_bandwidth,
                                          double window_t0, double window_t1,
                                          double noise) {
  StreamingExtractorConfig cfg;
  cfg.metrics = ml::diagnosis_feature_metrics(include_bandwidth);
  cfg.gauge.reserve(cfg.metrics.size());
  for (const metrics::MetricId& id : cfg.metrics)
    cfg.gauge.push_back(ml::diagnosis_metric_is_gauge(id) ? 1 : 0);
  cfg.window_t0 = window_t0;
  cfg.window_t1 = window_t1;
  cfg.noise = noise;
  return cfg;
}

/// One executed row: its features and its extractor's accounting.
struct RowFeatures {
  std::vector<double> features;
  std::size_t peak_buffered_values = 0;
  std::uint64_t samples_seen = 0;
};

/// Simulates plan row `i` with a streaming extractor observing node 0 and
/// returns its feature vector -- a pure function of (plan, i). Only the
/// world setup and the noise stream depend on the row kind. Returns
/// nullopt when `hard` cancels the row mid-simulation (its partial window
/// is never used).
std::optional<RowFeatures> compute_row(const DatasetPlan& plan, std::size_t i,
                                       const CancelToken* hard) {
  const DatasetRowSpec& row = plan.rows[i];
  const bool diagnosis = row.kind == DatasetRowSpec::Kind::kDiagnosis;
  const double duration =
      diagnosis ? plan.diag_options.run_duration_s : row.spec.duration_s;
  StreamingFeatureExtractor extractor(extractor_config(
      plan.include_bandwidth, plan.warmup_s, duration + 0.5, plan.noise));
  Rng noise_rng =
      diagnosis ? row.diag.noise_rng
                : Rng(runner::derive_scenario_seed(row.key_hash, kNoiseStream));
  if (diagnosis) {
    ml::DiagnosisScenario scenario = ml::begin_diagnosis_scenario(
        row.diag, plan.diag_options, &extractor, /*store_samples=*/false);
    scenario.world->set_cancel_token(hard);
    try {
      scenario.world->run_until(duration);
    } catch (const CancelledError&) {
      return std::nullopt;
    }
  } else {
    const runner::ScenarioResult run = runner::run_scenario(
        row.spec,
        {.cancel = hard,
         .sink = &extractor,
         .store_samples = runner::StoredNodes::kNone});
    if (run.status != runner::ScenarioStatus::kDone) return std::nullopt;
  }
  RowFeatures out;
  out.features = extractor.finalize(&noise_rng);
  out.peak_buffered_values = extractor.peak_buffered_values();
  out.samples_seen = extractor.samples_seen();
  return out;
}

}  // namespace

std::uint64_t DatasetPlan::digest() const {
  std::uint64_t h = kPlanSeed;
  mix_string(h, name);
  mix(h, rows.size());
  mix(h, feature_names.size());
  mix(h, class_names.size());
  for (const std::string& c : class_names) mix_string(h, c);
  mix_double(h, warmup_s);
  mix_double(h, noise);
  mix(h, include_bandwidth ? 1 : 0);
  for (const DatasetRowSpec& row : rows) {
    mix(h, static_cast<std::uint64_t>(row.kind));
    mix(h, static_cast<std::uint64_t>(row.label));
    mix(h, row.key_hash);
  }
  return h;
}

DatasetMeta DatasetPlan::meta(std::uint32_t shards) const {
  DatasetMeta meta;
  meta.plan_digest = digest();
  meta.rows = rows.size();
  meta.num_features = static_cast<std::uint32_t>(feature_names.size());
  meta.shards = shards;
  meta.class_names = class_names;
  meta.feature_names = feature_names;
  return meta;
}

int DatasetPlan::label_of(const std::string& anomaly) {
  for (std::size_t i = 0; i < class_names.size(); ++i)
    if (class_names[i] == anomaly) return static_cast<int>(i);
  class_names.push_back(anomaly);
  return static_cast<int>(class_names.size() - 1);
}

void DatasetPlan::add_scenario_row(const runner::ScenarioSpec& spec) {
  if (spec.duration_s + 0.5 <= warmup_s)
    throw ConfigError("dataset plan: scenario '" + spec.name +
                      "' is shorter than the feature warmup window");
  const std::uint64_t r = rows.size();
  DatasetRowSpec& row = rows.emplace_back();
  row.kind = DatasetRowSpec::Kind::kGrid;
  row.spec = spec;
  row.spec.name.append(1, '#').append(std::to_string(r));
  row.label = label_of(row.spec.anomaly);
  std::uint64_t h = kRowSeed;
  mix(h, r);
  mix(h, runner::scenario_key_hash(row.spec));
  row.key_hash = h;
}

DatasetPlan make_plan(std::string name, double warmup_s, double noise,
                      bool include_bandwidth) {
  ml::DiagnosisDataOptions features;
  features.include_bandwidth_metrics = include_bandwidth;
  DatasetPlan plan;
  plan.name = std::move(name);
  plan.feature_names = ml::diagnosis_feature_names(features);
  plan.warmup_s = warmup_s;
  plan.noise = noise;
  plan.include_bandwidth = include_bandwidth;
  return plan;
}

DatasetPlan plan_from_diagnosis(const ml::DiagnosisDataOptions& options) {
  DatasetPlan plan =
      make_plan("diagnosis", options.warmup_s, options.measurement_noise,
                options.include_bandwidth_metrics);
  plan.class_names = options.classes;
  plan.diag_options = options;
  std::uint64_t index = 0;
  for (ml::DiagnosisRunPlan& run : ml::plan_diagnosis_runs(options)) {
    DatasetRowSpec row;
    row.kind = DatasetRowSpec::Kind::kDiagnosis;
    row.label = run.label;
    std::uint64_t h = kRowSeed;
    mix(h, options.seed);
    mix(h, index);
    mix_string(h, run.app);
    mix_string(h, run.anomaly);
    mix(h, static_cast<std::uint64_t>(run.label));
    mix_double(h, run.intensity);
    row.key_hash = h;
    row.diag = std::move(run);
    plan.rows.push_back(std::move(row));
    ++index;
  }
  return plan;
}

DatasetPlan plan_from_grid(const runner::SweepGrid& grid, std::uint64_t rows,
                           double warmup_s, double noise,
                           bool include_bandwidth) {
  require(!grid.scenarios.empty(), "plan_from_grid: empty grid");
  if (rows == 0) rows = grid.scenarios.size();
  DatasetPlan plan = make_plan(grid.name, warmup_s, noise, include_bandwidth);
  // The label map covers the whole grid up front, so the class list does
  // not depend on how many rows the cycle was cut to.
  for (const runner::ScenarioSpec& spec : grid.scenarios)
    plan.label_of(spec.anomaly);
  plan.rows.reserve(rows);
  // Assigned per row, not constructed: reusing its buffers keeps copying a
  // scenario in allocation-free (planning is on the `hpas dataset` path).
  runner::ScenarioSpec spec;
  for (std::uint64_t r = 0; r < rows; ++r) {
    spec = grid.scenarios[r % grid.scenarios.size()];
    // Fresh stream per row: cycling the grid oversamples with new draws.
    spec.seed = runner::derive_scenario_seed(grid.base_seed, r);
    plan.add_scenario_row(spec);
  }
  return plan;
}

DatasetFactoryResult run_dataset_factory(const DatasetPlan& plan,
                                         const DatasetFactoryOptions& options) {
  require(!plan.rows.empty(), "run_dataset_factory: empty plan");
  require(plan.feature_names.size() > 0,
          "run_dataset_factory: plan has no features");
  DatasetFactoryResult result;
  result.rows_total = plan.rows.size();

  DatasetWriterOptions writer_options;
  writer_options.out_dir = options.out_dir;
  writer_options.checkpoint_rows = options.checkpoint_rows;
  writer_options.resume = options.resume;
  DatasetWriter writer(plan.meta(options.shards), writer_options);
  result.rows_resumed = writer.rows_durable();

  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> samples{0};
  std::atomic<std::size_t> peak{0};
  std::atomic<bool> interrupted{false};

  runner::WorkStealingPool pool({.threads = options.threads});
  const auto run_row = [&](std::size_t i) {
    if (writer.row_durable(i)) return;
    if (options.stop_requested()) {
      interrupted.store(true, std::memory_order_relaxed);
      return;
    }
    std::optional<RowFeatures> row = compute_row(plan, i, options.hard);
    if (!row) {
      interrupted.store(true, std::memory_order_relaxed);
      return;
    }
    const std::size_t row_peak = row->peak_buffered_values;
    std::size_t prev = peak.load(std::memory_order_relaxed);
    while (row_peak > prev &&
           !peak.compare_exchange_weak(prev, row_peak,
                                       std::memory_order_relaxed)) {
    }
    samples.fetch_add(row->samples_seen, std::memory_order_relaxed);
    executed.fetch_add(1, std::memory_order_relaxed);
    writer.append(i, plan.rows[i].label, row->features);
  };

  // parallel_for claims rows in plan order, so rows finish roughly in
  // order and only a few frames per worker park in the writer's
  // sequencer. The claim order alone does not bound parking: a row that
  // stalls (a long scenario) lets the rows after it finish, and they park
  // until it lands. Dispatching in fixed-size blocks caps that: a row can
  // only complete out of order within its block, so parked rows per shard
  // never exceed the block size. Blocks are far wider than the worker
  // count, so the barrier between them costs nothing measurable.
  constexpr std::size_t kRowBlock = 2048;
  try {
    for (std::size_t base = 0; base < plan.rows.size(); base += kRowBlock) {
      if (options.stop_requested()) {
        interrupted.store(true, std::memory_order_relaxed);
        break;
      }
      const std::size_t count =
          std::min(kRowBlock, plan.rows.size() - base);
      runner::parallel_for(pool, count,
                           [&](std::size_t i) { run_row(base + i); });
    }
  } catch (...) {
    writer.abandon();  // checkpoint the completed prefix before unwinding
    throw;
  }

  result.rows_executed = executed.load();
  result.samples_seen = samples.load();
  result.peak_buffered_values = peak.load();
  result.interrupted = interrupted.load() || options.stop_requested();
  const bool all_rows_written =
      result.rows_resumed + result.rows_executed == result.rows_total;
  if (!result.interrupted && all_rows_written) {
    result.manifest_path = writer.finish(options.write_csv);
    result.complete = true;
  } else {
    writer.abandon();
  }
  return result;
}

ml::Dataset build_dataset(const DatasetPlan& plan, int threads) {
  std::vector<std::vector<double>> features(plan.rows.size());
  runner::WorkStealingPool pool({.threads = threads});
  runner::parallel_for(pool, plan.rows.size(), [&](std::size_t i) {
    features[i] = std::move(compute_row(plan, i, /*hard=*/nullptr)->features);
  });
  ml::Dataset data;
  data.class_names = plan.class_names;
  data.feature_names = plan.feature_names;
  for (std::size_t i = 0; i < plan.rows.size(); ++i)
    data.add(features[i], plan.rows[i].label);
  return data;
}

}  // namespace hpas::dataset
