// CART decision tree (gini impurity), the base learner of the paper's
// diagnosis framework. Supports sample weights (AdaBoost) and per-split
// feature subsampling (random forest).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

namespace hpas::ml {

struct TreeOptions {
  int max_depth = 16;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Number of features examined per split; 0 = all (plain CART),
  /// otherwise a uniform random subset per split (random forest).
  std::size_t max_features = 0;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions options = {});

  /// Fits on `data` restricted to `indices` (empty = all rows).
  /// `weights` are per-row sample weights over the *whole* dataset
  /// (empty = uniform). `rng` is required when max_features > 0.
  void fit(const Dataset& data,
           const std::vector<std::size_t>& indices = {},
           const std::vector<double>& weights = {}, Rng* rng = nullptr);

  int predict(std::span<const double> x) const;
  /// Per-class weight distribution at the reached leaf (sums to 1).
  std::vector<double> predict_proba(std::span<const double> x) const;

  bool trained() const { return !nodes_.empty(); }
  std::size_t node_count() const { return nodes_.size(); }

  /// Gini importance per feature: total weighted impurity decrease
  /// contributed by splits on that feature, normalized to sum to 1
  /// (all zeros for a single-leaf tree). The diagnosis pipeline uses
  /// this to report which monitoring metrics drive each prediction.
  const std::vector<double>& feature_importances() const {
    return importances_;
  }

 private:
  struct Node {
    int feature = -1;         ///< -1 = leaf
    double threshold = 0.0;   ///< go left when x[feature] <= threshold
    int left = -1;
    int right = -1;
    std::vector<double> class_weights;  ///< leaves only (normalized)
  };

  int build(const Dataset& data, std::vector<std::size_t>& rows,
            const std::vector<double>& weights, int depth, Rng* rng);
  int make_leaf(const Dataset& data, const std::vector<std::size_t>& rows,
                const std::vector<double>& weights);

  TreeOptions options_;
  int num_classes_ = 0;
  std::vector<Node> nodes_;  // nodes_[0] is the root
  std::vector<double> importances_;
};

}  // namespace hpas::ml
