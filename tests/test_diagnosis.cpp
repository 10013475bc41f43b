// End-to-end tests for the diagnosis pipeline (ml/diagnosis.hpp, with the
// dataset factory producing the labeled rows) on a deliberately small
// configuration so the suite stays quick.
#include <algorithm>
#include "ml/diagnosis.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dataset/factory.hpp"

namespace hpas::ml {
namespace {

DiagnosisDataOptions small_options() {
  DiagnosisDataOptions options;
  options.classes = {"none", "memleak", "cpuoccupy"};
  options.variants_per_app = 1;
  options.run_duration_s = 30.0;
  return options;
}

Dataset generate(const DiagnosisDataOptions& options) {
  return dataset::build_dataset(dataset::plan_from_diagnosis(options),
                                /*threads=*/1);
}

TEST(DiagnosisData, ShapeAndDeterminism) {
  const auto options = small_options();
  const Dataset a = generate(options);
  // 3 classes x 8 apps x 1 variant.
  EXPECT_EQ(a.size(), 24u);
  EXPECT_EQ(a.num_classes(), 3);
  EXPECT_GT(a.num_features(), 50u);

  const Dataset b = generate(options);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.labels[i], b.labels[i]);
    EXPECT_TRUE(std::ranges::equal(a.row(i), b.row(i)));  // bit-identical runs
  }
}

TEST(DiagnosisData, BalancedLabels) {
  const Dataset data = generate(small_options());
  std::vector<int> counts(3, 0);
  for (const int y : data.labels) ++counts[static_cast<std::size_t>(y)];
  EXPECT_EQ(counts[0], 8);
  EXPECT_EQ(counts[1], 8);
  EXPECT_EQ(counts[2], 8);
}

TEST(DiagnosisData, RequiresNoneFirst) {
  DiagnosisDataOptions bad = small_options();
  bad.classes = {"memleak", "none"};
  EXPECT_THROW(generate(bad), InvariantError);
}

TEST(DiagnosisEval, DistinctClassesSeparate) {
  // none vs memleak vs cpuoccupy have clearly different signatures
  // (Memfree slope, user CPU); even 2-fold CV on 24 samples should be
  // far above chance (0.33).
  DiagnosisDataOptions options = small_options();
  options.variants_per_app = 2;  // 48 samples
  const Dataset data = generate(options);
  const auto results = evaluate_classifiers(data, 2);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].classifier, "DecisionTree");
  EXPECT_EQ(results[2].classifier, "RandomForest");
  for (const auto& scores : results) {
    EXPECT_GT(scores.overall_f1, 0.6) << scores.classifier;
    EXPECT_EQ(scores.per_class_f1.size(), 3u);
    EXPECT_EQ(scores.confusion.size(), 3u);
  }
  // RF typically at/near the top.
  EXPECT_GE(results[2].overall_f1, results[0].overall_f1 - 0.1);
}

TEST(DiagnosisEval, EmptyDatasetRejected) {
  Dataset empty;
  EXPECT_THROW(evaluate_classifiers(empty, 3), InvariantError);
}

}  // namespace
}  // namespace hpas::ml
