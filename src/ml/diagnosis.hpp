// End-to-end anomaly-diagnosis pipeline (paper Sec. 5.1).
//
// Plans labeled training runs of applications on the simulated cluster
// with and without injected anomalies, defines the statistical features
// extracted from their monitoring windows, and evaluates tree-based
// classifiers with stratified k-fold cross-validation -- the same
// offline-training / runtime-diagnosis workflow as the paper's framework
// (Tuncer et al.). The labeled dataset itself is produced by the
// streaming dataset factory (dataset/factory.hpp: plan_from_diagnosis,
// then build_dataset in memory or run_dataset_factory to shards).
//
// Deliberate fidelity detail: the paper observes that cpuoccupy, membw
// and cachecopy get confused with each other, likely "due to the lack of
// metrics representing memory bandwidth in the monitoring data". We
// therefore EXCLUDE the simulator's DRAM-traffic counter from the feature
// set by default, reproducing that monitoring limitation (and the
// confusion block of Fig. 10). Setting `include_bandwidth_metrics`
// recovers it -- an ablation the paper suggests implicitly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "metrics/metric_id.hpp"
#include "metrics/sample_sink.hpp"
#include "metrics/store.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"

namespace hpas::sim {
class World;
}
namespace hpas::apps {
class BspApp;
}

namespace hpas::ml {

struct DiagnosisDataOptions {
  /// Classes, index = label. Paper Fig. 9/10 uses exactly these six.
  std::vector<std::string> classes = {"none",      "memleak", "memeater",
                                      "cpuoccupy", "membw",   "cachecopy"};
  /// Anomaly-intensity variants per (app, class) pair.
  int variants_per_app = 5;
  double run_duration_s = 60.0;   ///< simulated monitoring window per run
  double warmup_s = 5.0;          ///< discarded from the feature window
  bool include_bandwidth_metrics = false;  ///< see header comment
  /// Relative sensor noise applied to the simulated counters. The
  /// simulator is exact; production LDMS series carry heavy run-to-run
  /// and phase variation. 0.5 calibrates the synthetic dataset's
  /// difficulty to the paper's production data (RF overall F1 ~ 0.94
  /// with the cpuoccupy/membw/cachecopy classes weakest); see
  /// bench/ablation_diagnosis for the sweep.
  double measurement_noise = 0.5;
  std::uint64_t seed = 0x44494147;  // "DIAG"
};

/// One planned (app, anomaly, intensity) training run. The plan carries
/// its own pre-split sensor-noise RNG, so executing a run is a pure
/// function of the plan -- runs can execute in any order, on any thread,
/// and still produce the exact bytes the serial sweep would.
struct DiagnosisRunPlan {
  std::string app;
  std::string anomaly;  ///< class name; "none" for the clean runs
  int label = 0;        ///< index into DiagnosisDataOptions::classes
  double intensity = 1.0;
  Rng noise_rng;        ///< per-run sensor-noise stream
};

/// Consumes the options seed *serially* (split order matters) and returns
/// the full class x app x variant run list in dataset order.
std::vector<DiagnosisRunPlan> plan_diagnosis_runs(
    const DiagnosisDataOptions& options);

/// Executes one planned run: simulates the scenario on a fresh world with
/// a full MetricStore and extracts its feature vector with
/// extract_window_features. The batch reference the streaming factory's
/// rows are checked against bit for bit. Thread-safe (no shared state).
std::vector<double> run_diagnosis_scenario(const DiagnosisRunPlan& plan,
                                           const DiagnosisDataOptions& options);

/// The metric channels feeding the classifier, in feature order (see the
/// header comment for why DRAM_BYTES is excluded by default).
std::vector<metrics::MetricId> diagnosis_feature_metrics(
    bool include_bandwidth);

/// True for metrics used as-is (gauges); counters are differenced into
/// per-interval rates before feature extraction.
bool diagnosis_metric_is_gauge(const metrics::MetricId& id);

/// A diagnosis scenario that has been set up (world built, monitoring
/// enabled, anomaly injected, application placed) but not yet advanced.
/// Callers run `world->run_until(options.run_duration_s)` and then
/// extract features however they observe samples (batch store or
/// streaming sink).
struct DiagnosisScenario {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<apps::BspApp> app;

  DiagnosisScenario();
  DiagnosisScenario(DiagnosisScenario&&) noexcept;
  DiagnosisScenario& operator=(DiagnosisScenario&&) noexcept;
  ~DiagnosisScenario();
};

/// Sets up one planned run without advancing time: the single source of
/// truth for the scenario construction both extraction modes share. With
/// the defaults this is exactly the batch pipeline's setup; the streaming
/// dataset factory passes a SampleSink (observing node 0, including the
/// t=0 sample) and store_samples = false so the MetricStore never
/// materializes. The simulated world is bit-identical either way -- the
/// sink is observation-only.
DiagnosisScenario begin_diagnosis_scenario(const DiagnosisRunPlan& plan,
                                           const DiagnosisDataOptions& options,
                                           metrics::SampleSink* sink = nullptr,
                                           bool store_samples = true);

/// Feature names in extraction order (metric x statistic).
std::vector<std::string> diagnosis_feature_names(
    const DiagnosisDataOptions& options);

/// Cross-validated evaluation result for one classifier.
struct DiagnosisScores {
  std::string classifier;
  std::vector<double> per_class_f1;  ///< indexed like options.classes
  double overall_f1 = 0.0;           ///< macro-F1 across classes
  std::vector<std::vector<double>> confusion;  ///< row-normalized
};

/// Trains and evaluates DecisionTree, AdaBoost and RandomForest with
/// stratified `k`-fold CV (paper: 3-fold); returns scores in that order.
std::vector<DiagnosisScores> evaluate_classifiers(const Dataset& data,
                                                  int k_folds = 3,
                                                  std::uint64_t seed = 7);

/// Extracts the diagnosis feature vector for one monitoring window,
/// using exactly the training pipeline's conventions (counters are
/// differenced into rates, gauges used raw, optional sensor noise).
/// Pass rng = nullptr for noise-free extraction.
std::vector<double> extract_window_features(const metrics::MetricStore& store,
                                            double t0, double t1,
                                            bool include_bandwidth_metrics,
                                            double noise, Rng* rng);

/// The runtime phase of the paper's framework (Sec. 5.1: "At runtime, we
/// generate statistical features from resource usage and performance
/// counter data. Using these features, the machine learning model
/// predicts the root cause ... occurring at certain times.").
///
/// Slides a window over live monitoring data and emits one class
/// prediction per hop.
class OnlineDiagnoser {
 public:
  struct Options {
    double window_s = 45.0;
    double hop_s = 15.0;
    bool include_bandwidth_metrics = false;  ///< must match training
  };

  /// Trains a RandomForest on `training` (typically
  /// dataset::build_dataset of a plan_from_diagnosis plan) and keeps its
  /// class names. (No default for `options`: nested-class member
  /// initializers cannot appear in a default argument of the enclosing
  /// class.)
  OnlineDiagnoser(const Dataset& training, Options options);

  struct WindowDiagnosis {
    double t0 = 0.0;
    double t1 = 0.0;
    int label = 0;
  };

  /// Diagnoses every complete window in [start, end).
  std::vector<WindowDiagnosis> diagnose(const metrics::MetricStore& store,
                                        double start, double end) const;

  const std::vector<std::string>& class_names() const { return classes_; }
  const char* class_name(int label) const;

 private:
  Options options_;
  std::vector<std::string> classes_;
  std::shared_ptr<RandomForest> model_;
};

}  // namespace hpas::ml
