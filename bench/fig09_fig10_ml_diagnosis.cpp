// Figures 9 & 10: anomaly diagnosis with tree-based classifiers.
//
// Generates labeled monitoring data by running the eight proxy apps with
// and without injected anomalies on the simulated Voltrino, extracts
// statistical features per metric window, and evaluates DecisionTree,
// AdaBoost and RandomForest with stratified 3-fold cross-validation.
//
// Paper shape (Fig. 9): all three classifiers score high on none /
// memleak / memeater; cpuoccupy, membw and cachecopy are the weakest
// classes; RandomForest's overall F1 ~ 0.94.
// Paper shape (Fig. 10): RF confusion matrix is near-diagonal except a
// confusion block among cpuoccupy <-> membw <-> cachecopy (the
// monitoring data carries no memory-bandwidth channel).
#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/stopwatch.hpp"
#include "dataset/factory.hpp"
#include "ml/diagnosis.hpp"
#include "ml/random_forest.hpp"
#include "runner/thread_pool.hpp"

int main() {
  std::printf("== Figures 9 & 10: anomaly diagnosis (3-fold CV) ==\n");
  std::printf("generating dataset (simulated runs, parallel sweep)...\n");

  // The training sweep (classes x apps x variants = 240 simulated runs)
  // goes through the dataset factory's in-memory output on the runner's
  // thread pool; 1-thread and N-thread generation must agree
  // feature-for-feature (the factory's determinism contract) and their
  // wall-clock ratio is the recorded batching speedup.
  const hpas::dataset::DatasetPlan plan =
      hpas::dataset::plan_from_diagnosis(hpas::ml::DiagnosisDataOptions{});
  // At least 4 workers even on small machines so the parallel run really
  // reorders task completion (the determinism check is vacuous at 1).
  const int hw_threads =
      std::max(4, hpas::runner::WorkStealingPool::default_thread_count());

  hpas::Stopwatch serial_watch;
  const auto serial_data = hpas::dataset::build_dataset(plan, 1);
  const double serial_s = serial_watch.elapsed_seconds();

  hpas::Stopwatch parallel_watch;
  const auto data = hpas::dataset::build_dataset(plan, hw_threads);
  const double parallel_s = parallel_watch.elapsed_seconds();

  const bool identical = serial_data.values() == data.values() &&
                         serial_data.labels == data.labels;
  std::printf("dataset: %zu samples x %zu features, %d classes\n",
              data.size(), data.num_features(), data.num_classes());
  std::printf("sweep: serial %.2fs  %d-thread %.2fs  speedup %.2fx  %s\n",
              serial_s, hw_threads, parallel_s, serial_s / parallel_s,
              identical ? "bit-identical" : "DIVERGED");
  std::printf(
      "BENCH_JSON {\"bench\":\"fig09_fig10_ml_diagnosis\",\"runs\":%zu,"
      "\"serial_s\":%.3f,\"parallel_s\":%.3f,\"threads\":%d,"
      "\"speedup\":%.2f,\"byte_identical\":%s}\n\n",
      data.size(), serial_s, parallel_s, hw_threads, serial_s / parallel_s,
      identical ? "true" : "false");
  if (!identical) return 1;

  const auto results = hpas::ml::evaluate_classifiers(data, /*k_folds=*/3);

  // ---- Figure 9: per-class F1 scores. -------------------------------
  std::printf("-- Figure 9: per-class F1 --\n%-14s", "classifier");
  for (const auto& name : data.class_names)
    std::printf(" %10s", name.c_str());
  std::printf(" %10s\n", "overall");
  for (const auto& scores : results) {
    std::printf("%-14s", scores.classifier.c_str());
    for (const double f1 : scores.per_class_f1) std::printf(" %10.2f", f1);
    std::printf(" %10.2f\n", scores.overall_f1);
  }

  // ---- Figure 10: RandomForest confusion matrix. ---------------------
  const auto& rf = results.back();
  std::printf("\n-- Figure 10: confusion matrix (%s, row-normalized) --\n",
              rf.classifier.c_str());
  std::printf("%-11s", "true\\pred");
  for (const auto& name : data.class_names)
    std::printf(" %10s", name.c_str());
  std::printf("\n");
  for (std::size_t t = 0; t < rf.confusion.size(); ++t) {
    std::printf("%-11s", data.class_names[t].c_str());
    for (const double v : rf.confusion[t]) std::printf(" %10.2f", v);
    std::printf("\n");
  }

  // ---- Diagnostics the paper's framework reports: which monitoring
  // metrics drive the model (gini importances of a full-data forest).
  hpas::ml::RandomForest forest;
  forest.fit(data);
  const auto importances = forest.feature_importances();
  std::vector<std::size_t> order(importances.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return importances[a] > importances[b];
  });
  std::printf("\n-- top diagnostic features (RF gini importance) --\n");
  for (std::size_t k = 0; k < 8 && k < order.size(); ++k) {
    std::printf("  %5.1f%%  %s\n", importances[order[k]] * 100.0,
                data.feature_names[order[k]].c_str());
  }

  // Shape: high overall accuracy with the footprint classes near-perfect
  // and the busy triple (cpuoccupy/membw/cachecopy) as the weakest part
  // of the matrix -- the paper's Fig. 9/10 structure.
  bool shape_ok = rf.overall_f1 > 0.85;
  shape_ok = shape_ok && rf.per_class_f1[1] > 0.95   // memleak
             && rf.per_class_f1[2] > 0.95;           // memeater
  const double triple_min = std::min(
      {rf.per_class_f1[3], rf.per_class_f1[4], rf.per_class_f1[5]});
  for (int c = 0; c < 3; ++c)
    shape_ok = shape_ok && triple_min <= rf.per_class_f1[static_cast<std::size_t>(c)];
  std::printf("\nshape check: %s\n", shape_ok ? "OK" : "FAILED");
  return shape_ok ? 0 : 1;
}
