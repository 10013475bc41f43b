// diagnosis_demo: train an anomaly-diagnosis model on synthetic HPAS data
// and use it to classify an unlabeled run -- the paper's use case 1
// (Sec. 5.1) as a ~5-second program.
//
// Pipeline: simulated runs (apps x anomalies) -> LDMS-like monitoring ->
// statistical features -> RandomForest -> diagnose a fresh run.
#include <cstdio>

#include "dataset/factory.hpp"
#include "ml/diagnosis.hpp"
#include "ml/random_forest.hpp"

int main() {
  // Small but representative dataset: 4 classes, 8 apps, 2 variants.
  hpas::ml::DiagnosisDataOptions options;
  options.classes = {"none", "memleak", "cpuoccupy", "membw"};
  options.variants_per_app = 2;
  options.run_duration_s = 45.0;

  std::printf("generating labeled runs (%d classes x 8 apps x %d)...\n",
              static_cast<int>(options.classes.size()),
              options.variants_per_app);
  const auto data = hpas::dataset::build_dataset(
      hpas::dataset::plan_from_diagnosis(options), /*threads=*/0);
  std::printf("dataset: %zu samples, %zu features\n", data.size(),
              data.num_features());

  // Cross-validated scores, then a model trained on everything.
  const auto scores = hpas::ml::evaluate_classifiers(data, /*k_folds=*/3);
  for (const auto& model : scores) {
    std::printf("  %-14s overall F1 = %.2f\n", model.classifier.c_str(),
                model.overall_f1);
  }

  hpas::ml::RandomForest forest;
  forest.fit(data);

  // "Production": new runs arrive without labels; diagnose them.
  // We reuse the factory with a different seed as the unlabeled stream.
  hpas::ml::DiagnosisDataOptions unseen = options;
  unseen.seed = 0xBEEF;
  unseen.variants_per_app = 1;
  const auto fresh = hpas::dataset::build_dataset(
      hpas::dataset::plan_from_diagnosis(unseen), /*threads=*/0);
  int correct = 0;
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const int predicted = forest.predict(fresh.row(i));
    if (predicted == fresh.labels[i]) ++correct;
  }
  std::printf("diagnosed %d/%zu unseen runs correctly\n", correct,
              fresh.size());
  return 0;
}
