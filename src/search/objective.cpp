#include "search/objective.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "dataset/factory.hpp"
#include "ml/diagnosis.hpp"
#include "sched/monitor.hpp"
#include "sched/policies.hpp"

namespace hpas::search {

// --- max_degradation_per_intensity -------------------------------------

double DegradationPerIntensityObjective::score(
    const runner::ScenarioSpec& spec, const Measurement& run,
    const Measurement& baseline, double probe_value) const {
  (void)probe_value;
  // Anomaly-free points ARE the baselines; scoring them exactly 0 keeps
  // the journaled objective consistent whether a point was evaluated as a
  // proposal or as another point's baseline.
  if (spec.anomaly == "none") return 0.0;
  if (run.app_elapsed_s <= 0.0 || baseline.app_elapsed_s <= 0.0) return 0.0;
  double slowdown = 0.0;
  if (run.app_iterations > 0 && baseline.app_iterations > 0) {
    // Throughput ratio: exact in windowed runs (elapsed is pinned to the
    // window, iterations carry the slowdown) and identical to the
    // execution-time ratio in run-to-completion runs.
    const double tput = static_cast<double>(run.app_iterations) /
                        run.app_elapsed_s;
    const double base_tput = static_cast<double>(baseline.app_iterations) /
                             baseline.app_elapsed_s;
    if (tput <= 0.0) return 0.0;
    slowdown = base_tput / tput - 1.0;
  } else {
    slowdown = run.app_elapsed_s / baseline.app_elapsed_s - 1.0;
  }
  return slowdown / std::max(spec.intensity, 1e-6);
}

// --- evade_diagnosis ----------------------------------------------------

EvadeDiagnosisObjective::EvadeDiagnosisObjective(
    std::shared_ptr<const ml::RandomForest> forest,
    std::vector<std::string> classes, double warmup_s)
    : forest_(std::move(forest)),
      classes_(std::move(classes)),
      warmup_s_(warmup_s) {
  if (!forest_ || !forest_->trained())
    throw ConfigError("evade_diagnosis: requires a trained forest");
  if (classes_.empty())
    throw ConfigError("evade_diagnosis: requires the training class list");
}

double EvadeDiagnosisObjective::probe(sim::World& world,
                                      const runner::ScenarioSpec& spec) const {
  const auto it = std::find(classes_.begin(), classes_.end(), spec.anomaly);
  if (it == classes_.end()) return 0.0;
  const auto true_class =
      static_cast<std::size_t>(std::distance(classes_.begin(), it));
  // Anomalies inject on node 0; diagnose its monitoring window with the
  // training pipeline's conventions (no bandwidth metrics, no noise).
  const double t1 = std::max(spec.duration_s, warmup_s_ + 1.0);
  const std::vector<double> features = ml::extract_window_features(
      world.node_store(0), warmup_s_, t1,
      /*include_bandwidth_metrics=*/false, /*noise=*/0.0, /*rng=*/nullptr);
  const std::vector<double> proba = forest_->predict_proba(features);
  if (true_class >= proba.size()) return 0.0;
  return proba[true_class];
}

double EvadeDiagnosisObjective::score(const runner::ScenarioSpec& spec,
                                      const Measurement& run,
                                      const Measurement& baseline,
                                      double probe_value) const {
  (void)run;
  (void)baseline;
  // No anomaly, or one the classifier was never trained on: nothing to
  // evade.
  if (spec.anomaly == "none") return 0.0;
  if (std::find(classes_.begin(), classes_.end(), spec.anomaly) ==
      classes_.end())
    return 0.0;
  return std::clamp(1.0 - probe_value, 0.0, 1.0);
}

// --- scheduler_worst_case ----------------------------------------------

double SchedulerWorstCaseObjective::probe(
    sim::World& world, const runner::ScenarioSpec& spec) const {
  (void)spec;
  sched::NodeMonitor monitor(world, /*period_s=*/10.0);
  monitor.sample_once();
  const std::vector<sched::NodeStatus> status = monitor.status();
  if (status.empty()) return 0.0;
  double cp_anomalous = 0.0;
  double cp_best = 0.0;
  for (const sched::NodeStatus& node : status) {
    const double cp = sched::WbasPolicy::computing_capacity(node);
    if (node.node_id == 0) cp_anomalous = cp;
    cp_best = std::max(cp_best, cp);
  }
  if (cp_best <= 0.0) return cp_anomalous <= 0.0 ? 1.0 : 0.0;
  return std::clamp(cp_anomalous / cp_best, 0.0, 1.0);
}

double SchedulerWorstCaseObjective::score(const runner::ScenarioSpec& spec,
                                          const Measurement& run,
                                          const Measurement& baseline,
                                          double probe_value) const {
  (void)run;
  (void)baseline;
  // The interesting worst case is an *injected* anomaly WBAS cannot see;
  // without one every node ranks alike and the ratio is trivially 1.
  if (spec.anomaly == "none") return 0.0;
  return probe_value;
}

// --- factory ------------------------------------------------------------

std::unique_ptr<Objective> make_objective(
    const std::string& name, const ObjectiveFactoryOptions& options) {
  if (name == "max_degradation_per_intensity" || name == "degradation")
    return std::make_unique<DegradationPerIntensityObjective>();
  if (name == "scheduler_worst_case" || name == "wbas")
    return std::make_unique<SchedulerWorstCaseObjective>();
  if (name == "evade_diagnosis" || name == "evade") {
    // Train the diagnosis classifier once, deterministically: a reduced
    // dataset (one intensity variant per app/class, short windows) keeps
    // the setup to a few seconds while preserving the fig09 class
    // structure the objective scores against.
    ml::DiagnosisDataOptions data;
    data.variants_per_app = 1;
    data.run_duration_s = 20.0;
    data.warmup_s = 2.0;
    const ml::Dataset training = dataset::build_dataset(
        dataset::plan_from_diagnosis(data), std::max(1, options.threads));
    ml::ForestOptions forest_options;
    forest_options.num_trees = 30;
    auto forest = std::make_shared<ml::RandomForest>(forest_options);
    forest->fit(training);
    return std::make_unique<EvadeDiagnosisObjective>(
        std::move(forest), training.class_names, data.warmup_s);
  }
  throw ConfigError(
      "search: unknown objective '" + name +
      "' (expected max_degradation_per_intensity, evade_diagnosis or "
      "scheduler_worst_case)");
}

}  // namespace hpas::search
