// Tests for the ML stack: dataset/folds, CART, random forest, AdaBoost,
// and evaluation metrics.
#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ml/adaboost.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/evaluation.hpp"
#include "ml/random_forest.hpp"

namespace hpas::ml {
namespace {

/// Two Gaussian blobs per class along feature 0; feature 1 is noise.
Dataset make_blobs(std::size_t per_class, double separation,
                   std::uint64_t seed) {
  Dataset data;
  data.class_names = {"lo", "hi"};
  Rng rng(seed);
  for (std::size_t i = 0; i < per_class; ++i) {
    data.add({rng.normal(0.0, 1.0), rng.uniform01()}, 0);
    data.add({rng.normal(separation, 1.0), rng.uniform01()}, 1);
  }
  return data;
}

/// XOR over two features: linearly inseparable, depth >= 2 required.
Dataset make_xor(std::size_t n, std::uint64_t seed) {
  Dataset data;
  data.class_names = {"zero", "one"};
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(-1, 1);
    const double y = rng.uniform(-1, 1);
    data.add({x, y}, (x > 0) != (y > 0) ? 1 : 0);
  }
  return data;
}

TEST(Dataset, AddValidates) {
  Dataset data;
  data.class_names = {"a", "b"};
  data.add({1.0, 2.0}, 0);
  EXPECT_THROW(data.add({1.0}, 0), InvariantError);       // dim mismatch
  EXPECT_THROW(data.add({1.0, 2.0}, 2), InvariantError);  // bad label
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.num_features(), 2u);
}

TEST(Dataset, SelectSubsets) {
  Dataset data = make_blobs(10, 3.0, 1);
  const Dataset subset = data.select({0, 2, 4});
  EXPECT_EQ(subset.size(), 3u);
  EXPECT_EQ(subset.labels[0], data.labels[0]);
  EXPECT_TRUE(std::ranges::equal(subset.row(1), data.row(2)));
  EXPECT_THROW(data.select({9999}), InvariantError);
}

TEST(StratifiedKFold, PartitionsAndPreservesRatios) {
  Dataset data = make_blobs(30, 3.0, 2);  // 60 samples, 30/30
  Rng rng(3);
  const auto folds = stratified_k_fold(data, 3, rng);
  ASSERT_EQ(folds.size(), 3u);
  std::vector<int> seen(data.size(), 0);
  for (const auto& fold : folds) {
    EXPECT_EQ(fold.test_indices.size(), 20u);
    EXPECT_EQ(fold.train_indices.size(), 40u);
    int per_class[2] = {0, 0};
    for (const auto i : fold.test_indices) {
      ++seen[i];
      ++per_class[data.labels[i]];
    }
    EXPECT_EQ(per_class[0], 10);  // stratification
    EXPECT_EQ(per_class[1], 10);
  }
  for (const int s : seen) EXPECT_EQ(s, 1);  // exact partition
}

TEST(StratifiedKFold, Validates) {
  Dataset data = make_blobs(2, 3.0, 4);
  Rng rng(5);
  EXPECT_THROW(stratified_k_fold(data, 1, rng), InvariantError);
}

TEST(DecisionTree, PerfectOnSeparableData) {
  Dataset data = make_blobs(50, 10.0, 6);
  DecisionTree tree;
  tree.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tree.predict(data.row(i)) == data.labels[i]) ++correct;
  }
  EXPECT_EQ(correct, static_cast<int>(data.size()));
}

TEST(DecisionTree, SolvesXor) {
  Dataset data = make_xor(400, 7);
  DecisionTree tree(TreeOptions{.max_depth = 6});
  tree.fit(data);
  int correct = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (tree.predict(data.row(i)) == data.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(data.size()),
            0.95);
  // Four XOR quadrants need at least four leaves: two levels of splits.
  EXPECT_GE(tree.node_count(), 7u);
}

TEST(DecisionTree, DepthLimitRespected) {
  Dataset data = make_xor(200, 8);
  DecisionTree stump(TreeOptions{.max_depth = 1});
  stump.fit(data);
  EXPECT_LE(stump.node_count(), 3u);  // one split: root + two leaves
}

TEST(DecisionTree, MinLeafRespected) {
  Dataset data = make_blobs(20, 1.0, 9);
  DecisionTree tree(TreeOptions{.max_depth = 20, .min_samples_leaf = 10});
  tree.fit(data);
  // With 40 samples and >=10 per leaf, at most 4 leaves => few nodes.
  EXPECT_LE(tree.node_count(), 9u);
}

TEST(DecisionTree, SampleWeightsSteerTheFit) {
  // Two overlapping points with conflicting labels; the heavier one wins.
  Dataset data;
  data.class_names = {"a", "b"};
  data.add({0.0}, 0);
  data.add({0.0}, 1);
  DecisionTree tree;
  tree.fit(data, {}, {0.9, 0.1});
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 0);
  tree.fit(data, {}, {0.1, 0.9});
  EXPECT_EQ(tree.predict(std::vector<double>{0.0}), 1);
}

TEST(DecisionTree, PredictProbaSumsToOne) {
  Dataset data = make_blobs(30, 2.0, 10);
  DecisionTree tree(TreeOptions{.max_depth = 3});
  tree.fit(data);
  const auto proba = tree.predict_proba(data.row(0));
  double sum = 0;
  for (const double p : proba) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(DecisionTree, UntrainedThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), InvariantError);
}

TEST(RandomForest, BeatsSingleStumpOnXor) {
  Dataset train = make_xor(400, 11);
  Dataset test = make_xor(200, 12);
  RandomForest forest(ForestOptions{.num_trees = 25, .max_depth = 8});
  forest.fit(train);
  int correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (forest.predict(test.row(i)) == test.labels[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / static_cast<double>(test.size()),
            0.9);
}

TEST(RandomForest, DeterministicForFixedSeed) {
  Dataset data = make_xor(200, 13);
  RandomForest f1(ForestOptions{.num_trees = 10, .seed = 99});
  RandomForest f2(ForestOptions{.num_trees = 10, .seed = 99});
  f1.fit(data);
  f2.fit(data);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(f1.predict(data.row(i)), f2.predict(data.row(i)));
  }
}

TEST(AdaBoost, BoostsStumpsPastSingleStump) {
  Dataset train = make_xor(400, 14);
  Dataset test = make_xor(200, 15);

  DecisionTree stump(TreeOptions{.max_depth = 1});
  stump.fit(train);
  int stump_correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (stump.predict(test.row(i)) == test.labels[i]) ++stump_correct;
  }

  AdaBoost boosted(AdaBoostOptions{.num_rounds = 40, .base_max_depth = 2});
  boosted.fit(train);
  int boosted_correct = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (boosted.predict(test.row(i)) == test.labels[i])
      ++boosted_correct;
  }
  EXPECT_GT(boosted_correct, stump_correct);
  EXPECT_GT(static_cast<double>(boosted_correct) /
                static_cast<double>(test.size()),
            0.85);
}

TEST(FeatureImportance, ConcentratesOnInformativeFeatures) {
  // Labels depend only on features 0 and 1; features 2..9 are noise.
  Dataset data;
  data.class_names = {"zero", "one"};
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> x(10);
    for (auto& v : x) v = rng.uniform(-1, 1);
    const int y = (x[0] > 0) != (x[1] > 0) ? 1 : 0;
    data.add(std::move(x), y);
  }
  DecisionTree tree(TreeOptions{.max_depth = 6});
  tree.fit(data);
  const auto& imp = tree.feature_importances();
  ASSERT_EQ(imp.size(), 10u);
  double sum = 0.0;
  for (const double v : imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(imp[0] + imp[1], 0.7);  // informative pair dominates
}

TEST(FeatureImportance, ForestAggregatesAndNormalizes) {
  Dataset data = make_blobs(100, 6.0, 22);  // feature 0 informative
  RandomForest forest(ForestOptions{.num_trees = 15, .max_depth = 6});
  forest.fit(data);
  const auto imp = forest.feature_importances();
  ASSERT_EQ(imp.size(), 2u);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
  EXPECT_GT(imp[0], 0.8);
}

TEST(FeatureImportance, SingleLeafTreeIsAllZero) {
  Dataset data;
  data.class_names = {"only"};
  data.add({1.0}, 0);
  data.add({2.0}, 0);
  DecisionTree tree;
  tree.fit(data);
  for (const double v : tree.feature_importances()) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ConfusionMatrix, MetricsMatchHandComputation) {
  ConfusionMatrix cm(2);
  // class 0: 8 right, 2 predicted as 1; class 1: 9 right, 1 as 0.
  for (int i = 0; i < 8; ++i) cm.add(0, 0);
  for (int i = 0; i < 2; ++i) cm.add(0, 1);
  for (int i = 0; i < 9; ++i) cm.add(1, 1);
  cm.add(1, 0);
  EXPECT_NEAR(cm.recall(0), 0.8, 1e-12);
  EXPECT_NEAR(cm.precision(0), 8.0 / 9.0, 1e-12);
  const double p = 8.0 / 9.0, r = 0.8;
  EXPECT_NEAR(cm.f1(0), 2 * p * r / (p + r), 1e-12);
  const auto norm = cm.row_normalized();
  EXPECT_NEAR(norm[0][0], 0.8, 1e-12);
  EXPECT_NEAR(norm[1][1], 0.9, 1e-12);
}

TEST(ConfusionMatrix, EmptyClassesSafe) {
  ConfusionMatrix cm(3);
  cm.add(0, 0);
  EXPECT_DOUBLE_EQ(cm.precision(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.recall(2), 0.0);
  EXPECT_DOUBLE_EQ(cm.f1(2), 0.0);
}

TEST(ConfusionMatrix, Validates) {
  ConfusionMatrix cm(2);
  EXPECT_THROW(cm.add(2, 0), InvariantError);
  EXPECT_THROW(cm.add(0, -1), InvariantError);
  EXPECT_THROW(ConfusionMatrix(0), InvariantError);
}

}  // namespace
}  // namespace hpas::ml
