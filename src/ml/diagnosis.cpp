#include "ml/diagnosis.hpp"

#include <algorithm>

#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "common/error.hpp"
#include "metrics/features.hpp"
#include "ml/adaboost.hpp"
#include "ml/decision_tree.hpp"
#include "ml/evaluation.hpp"
#include "ml/random_forest.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"

namespace hpas::ml {
namespace {

using metrics::MetricId;

/// Gauge metrics are used as-is; counters are differenced into rates
/// before feature extraction (standard practice for /proc-style data).
bool is_gauge(const MetricId& id) {
  return id.sampler == "meminfo";
}

/// The monitoring channels fed to the classifier: exactly the counters
/// the paper names (procstat, meminfo, vmstat, the spapiHASW events used
/// in Table 2, and the Aries flit counter). DRAM_BYTES is the
/// memory-bandwidth counter the paper's deployment lacks; L1-level
/// counters are likewise not part of the paper's metric set.
std::vector<MetricId> feature_metrics(bool include_bandwidth) {
  std::vector<MetricId> ids = {
      {"user", "procstat"},
      {"sys", "procstat"},
      {"idle", "procstat"},
      {"Memfree", "meminfo"},
      {"pgfault", "vmstat"},
      {"INST_RETIRED:ANY", "spapiHASW"},
      {"L2_RQSTS:MISS", "spapiHASW"},
      {"LLC_MISSES", "spapiHASW"},
      {"AR_NIC_NETMON_ORB_EVENT_CNTR_REQ_FLITS", "aries_nic_mmr"},
  };
  if (include_bandwidth) ids.push_back({"DRAM_BYTES", "spapiHASW"});
  return ids;
}

}  // namespace

std::vector<double> extract_window_features(const metrics::MetricStore& store,
                                            double t0, double t1,
                                            bool include_bandwidth_metrics,
                                            double noise, Rng* rng) {
  std::vector<double> features;
  for (const MetricId& id : feature_metrics(include_bandwidth_metrics)) {
    std::vector<double> window;
    if (store.contains(id)) window = store.series(id).values_between(t0, t1);
    if (!is_gauge(id) && window.size() >= 2) {
      std::vector<double> rates;
      rates.reserve(window.size() - 1);
      for (std::size_t i = 1; i < window.size(); ++i)
        rates.push_back(window[i] - window[i - 1]);
      window = std::move(rates);
    }
    if (rng != nullptr && noise > 0.0) {
      for (double& v : window) v *= 1.0 + rng->normal(0.0, noise);
    }
    const auto f = metrics::extract_series_features(window);
    features.insert(features.end(), f.begin(), f.end());
  }
  return features;
}

std::vector<metrics::MetricId> diagnosis_feature_metrics(
    bool include_bandwidth) {
  return feature_metrics(include_bandwidth);
}

bool diagnosis_metric_is_gauge(const metrics::MetricId& id) {
  return is_gauge(id);
}

DiagnosisScenario::DiagnosisScenario() = default;
DiagnosisScenario::DiagnosisScenario(DiagnosisScenario&&) noexcept = default;
DiagnosisScenario& DiagnosisScenario::operator=(DiagnosisScenario&&) noexcept =
    default;
DiagnosisScenario::~DiagnosisScenario() = default;

DiagnosisScenario begin_diagnosis_scenario(const DiagnosisRunPlan& plan,
                                           const DiagnosisDataOptions& options,
                                           metrics::SampleSink* sink,
                                           bool store_samples) {
  const std::string& anomaly = plan.anomaly;
  const double intensity = plan.intensity;
  DiagnosisScenario scenario;
  scenario.world = sim::make_voltrino_world();
  sim::World& world = *scenario.world;
  world.enable_monitoring(1.0, sink, /*sink_node=*/0, store_samples);

  if (anomaly != "none") {
    // The busy anomalies (cpuoccupy/cachecopy/membw) colocate with rank 0
    // -- the orphan-process pattern of the paper's experiments -- which is
    // also what makes them partially confusable: all three present as one
    // stolen core plus a slowed application. The footprint anomalies
    // (memeater/memleak) take a free core. Each class spans its full
    // intensity range ("can be configured for various intensities"),
    // which is what gives the class-conditional distributions realistic
    // overlap.
    const double duration = options.run_duration_s;
    if (anomaly == "cpuoccupy") {
      simanom::inject_cpuoccupy(world, 0, 0, 100.0 * intensity, duration);
    } else if (anomaly == "cachecopy") {
      // Cycle the targeted level with the intensity knob: the suite is
      // exercised at L1, L2 and L3 working sets.
      const auto level = static_cast<simanom::SimCacheLevel>(
          1 + static_cast<int>(intensity * 977.0) % 3);
      simanom::inject_cachecopy(world, 0, 0, level,
                                std::clamp(intensity, 0.4, 1.5), duration);
    } else if (anomaly == "membw") {
      simanom::inject_membw(world, 0, 0, duration,
                            std::clamp(intensity, 0.3, 1.0));
    } else {
      simanom::inject_by_name(world, anomaly, /*node=*/0, /*core=*/8,
                              duration, intensity);
    }
  }

  apps::AppSpec spec = apps::app_by_name(plan.app);
  spec.iterations = 1000000;  // runs past the window; we only observe
  scenario.app = std::make_unique<apps::BspApp>(
      world, spec,
      apps::BspApp::Placement{
          .nodes = {0, 4}, .ranks_per_node = 4, .first_core = 0});
  return scenario;
}

namespace {

double intensity_for_variant(const std::string& anomaly, int variant,
                             int variants, Rng& rng) {
  // Spread intensities over a plausible operational range, with jitter so
  // no two samples are identical.
  const double frac =
      variants > 1 ? static_cast<double>(variant) /
                         static_cast<double>(variants - 1)
                   : 0.5;
  const double jitter = rng.uniform(-0.05, 0.05);
  if (anomaly == "cpuoccupy")
    return std::clamp(0.3 + 0.7 * frac + jitter, 0.1, 1.0);  // 30..100%
  if (anomaly == "cachecopy") return 0.6 + 0.8 * frac + jitter;  // ws mult
  if (anomaly == "membw")
    return std::clamp(0.4 + 0.6 * frac + jitter, 0.3, 1.0);  // duty
  if (anomaly == "memleak" || anomaly == "memeater")
    return 0.5 + 1.5 * frac + jitter;  // chunk-size scale
  return 1.0 + jitter;
}

}  // namespace

std::vector<DiagnosisRunPlan> plan_diagnosis_runs(
    const DiagnosisDataOptions& options) {
  require(!options.classes.empty() && options.classes[0] == "none",
          "plan_diagnosis_runs: class 0 must be 'none'");
  // The split()/uniform() consumption order below must stay exactly the
  // historical serial-sweep order: the plan IS the dataset's random tape,
  // and every executor (serial or pooled) replays it bit-identically.
  Rng rng(options.seed);
  std::vector<DiagnosisRunPlan> plan;
  for (std::size_t label = 0; label < options.classes.size(); ++label) {
    const std::string& anomaly = options.classes[label];
    for (const auto& app : apps::proxy_apps()) {
      for (int variant = 0; variant < options.variants_per_app; ++variant) {
        DiagnosisRunPlan run{.app = app.name,
                             .anomaly = anomaly,
                             .label = static_cast<int>(label),
                             .intensity = 0.0,
                             .noise_rng = rng.split()};
        run.intensity = intensity_for_variant(
            anomaly, variant, options.variants_per_app, rng);
        plan.push_back(std::move(run));
      }
    }
  }
  return plan;
}

std::vector<double> run_diagnosis_scenario(const DiagnosisRunPlan& plan,
                                           const DiagnosisDataOptions& options) {
  DiagnosisScenario scenario = begin_diagnosis_scenario(plan, options);
  scenario.world->run_until(options.run_duration_s);

  // Sensor noise: real LDMS data is jittery; the simulator is exact.
  Rng noise_rng = plan.noise_rng;  // private copy: the plan stays reusable
  return extract_window_features(
      scenario.world->node_store(0), options.warmup_s,
      options.run_duration_s + 0.5, options.include_bandwidth_metrics,
      options.measurement_noise, &noise_rng);
}

std::vector<std::string> diagnosis_feature_names(
    const DiagnosisDataOptions& options) {
  std::vector<std::string> names;
  for (const MetricId& id :
       feature_metrics(options.include_bandwidth_metrics)) {
    for (const auto& stat : metrics::feature_statistic_names())
      names.push_back(id.full_name() + "#" + stat);
  }
  return names;
}

std::vector<DiagnosisScores> evaluate_classifiers(const Dataset& data,
                                                  int k_folds,
                                                  std::uint64_t seed) {
  require(data.size() > 0, "evaluate_classifiers: empty dataset");
  Rng rng(seed);
  const auto folds = stratified_k_fold(data, k_folds, rng);

  struct Model {
    std::string name;
    std::function<std::function<int(std::span<const double>)>(
        const Dataset&)> train;
  };
  const std::vector<Model> models = {
      {"DecisionTree",
       [](const Dataset& train) {
         auto tree = std::make_shared<DecisionTree>(TreeOptions{
             .max_depth = 12, .min_samples_leaf = 2, .min_samples_split = 4});
         tree->fit(train);
         return [tree](std::span<const double> x) {
           return tree->predict(x);
         };
       }},
      {"AdaBoost",
       [](const Dataset& train) {
         auto model = std::make_shared<AdaBoost>(
             AdaBoostOptions{.num_rounds = 40, .base_max_depth = 3});
         model->fit(train);
         return [model](std::span<const double> x) {
           return model->predict(x);
         };
       }},
      {"RandomForest",
       [](const Dataset& train) {
         auto forest = std::make_shared<RandomForest>(ForestOptions{
             .num_trees = 50, .max_depth = 14, .min_samples_leaf = 1});
         forest->fit(train);
         return [forest](std::span<const double> x) {
           return forest->predict(x);
         };
       }},
  };

  std::vector<DiagnosisScores> results;
  for (const auto& model : models) {
    ConfusionMatrix confusion(data.num_classes());
    for (const auto& fold : folds) {
      const Dataset train = data.select(fold.train_indices);
      const auto predict = model.train(train);
      for (const std::size_t i : fold.test_indices) {
        confusion.add(data.labels[i], predict(data.row(i)));
      }
    }
    DiagnosisScores scores;
    scores.classifier = model.name;
    for (int c = 0; c < data.num_classes(); ++c)
      scores.per_class_f1.push_back(confusion.f1(c));
    scores.overall_f1 = confusion.macro_f1();
    scores.confusion = confusion.row_normalized();
    results.push_back(std::move(scores));
  }
  return results;
}

OnlineDiagnoser::OnlineDiagnoser(const Dataset& training, Options options)
    : options_(options), classes_(training.class_names) {
  require(options.window_s > 0.0 && options.hop_s > 0.0,
          "OnlineDiagnoser: window and hop must be positive");
  require(training.size() > 0, "OnlineDiagnoser: empty training set");
  model_ = std::make_shared<RandomForest>(
      ForestOptions{.num_trees = 50, .max_depth = 14});
  model_->fit(training);
}

const char* OnlineDiagnoser::class_name(int label) const {
  require(label >= 0 && static_cast<std::size_t>(label) < classes_.size(),
          "OnlineDiagnoser: label out of range");
  return classes_[static_cast<std::size_t>(label)].c_str();
}

std::vector<OnlineDiagnoser::WindowDiagnosis> OnlineDiagnoser::diagnose(
    const metrics::MetricStore& store, double start, double end) const {
  std::vector<WindowDiagnosis> out;
  for (double t0 = start; t0 + options_.window_s <= end;
       t0 += options_.hop_s) {
    const double t1 = t0 + options_.window_s;
    const auto features = extract_window_features(
        store, t0, t1, options_.include_bandwidth_metrics, 0.0, nullptr);
    out.push_back({t0, t1, model_->predict(features)});
  }
  return out;
}

}  // namespace hpas::ml
