#include "ml/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace hpas::ml {
namespace {

double gini_from_counts(const std::vector<double>& counts, double total) {
  if (total <= 0.0) return 0.0;
  double sum_sq = 0.0;
  for (const double c : counts) sum_sq += c * c;
  return 1.0 - sum_sq / (total * total);
}

}  // namespace

DecisionTree::DecisionTree(TreeOptions options) : options_(options) {}

int DecisionTree::make_leaf(const Dataset& data,
                            const std::vector<std::size_t>& rows,
                            const std::vector<double>& weights) {
  Node leaf;
  leaf.class_weights.assign(static_cast<std::size_t>(num_classes_), 0.0);
  double total = 0.0;
  for (const std::size_t r : rows) {
    const double w = weights.empty() ? 1.0 : weights[r];
    leaf.class_weights[static_cast<std::size_t>(data.labels[r])] += w;
    total += w;
  }
  if (total > 0.0) {
    for (double& w : leaf.class_weights) w /= total;
  }
  nodes_.push_back(std::move(leaf));
  return static_cast<int>(nodes_.size()) - 1;
}

int DecisionTree::build(const Dataset& data, std::vector<std::size_t>& rows,
                        const std::vector<double>& weights, int depth,
                        Rng* rng) {
  // Stop: depth, size, or purity.
  bool pure = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (data.labels[rows[i]] != data.labels[rows[0]]) {
      pure = false;
      break;
    }
  }
  if (pure || depth >= options_.max_depth ||
      rows.size() < options_.min_samples_split) {
    return make_leaf(data, rows, weights);
  }

  // Candidate features (all, or a random subset for forests).
  std::vector<std::size_t> candidates(data.num_features());
  std::iota(candidates.begin(), candidates.end(), std::size_t{0});
  if (options_.max_features > 0 &&
      options_.max_features < candidates.size()) {
    require(rng != nullptr, "DecisionTree: rng required for max_features");
    rng->shuffle(candidates);
    candidates.resize(options_.max_features);
  }

  // Totals for the parent.
  std::vector<double> total_counts(static_cast<std::size_t>(num_classes_), 0.0);
  double total_weight = 0.0;
  for (const std::size_t r : rows) {
    const double w = weights.empty() ? 1.0 : weights[r];
    total_counts[static_cast<std::size_t>(data.labels[r])] += w;
    total_weight += w;
  }
  const double parent_gini = gini_from_counts(total_counts, total_weight);

  // Best split search.
  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;
  std::vector<std::size_t> order(rows);
  for (const std::size_t f : candidates) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return data.at(a, f) < data.at(b, f);
    });
    std::vector<double> left_counts(static_cast<std::size_t>(num_classes_), 0.0);
    double left_weight = 0.0;
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      const std::size_t r = order[i];
      const double w = weights.empty() ? 1.0 : weights[r];
      left_counts[static_cast<std::size_t>(data.labels[r])] += w;
      left_weight += w;
      const double v = data.at(r, f);
      const double v_next = data.at(order[i + 1], f);
      if (v == v_next) continue;  // no threshold between equal values
      const std::size_t n_left = i + 1;
      const std::size_t n_right = order.size() - n_left;
      if (n_left < options_.min_samples_leaf ||
          n_right < options_.min_samples_leaf)
        continue;
      std::vector<double> right_counts(total_counts);
      for (std::size_t c = 0; c < right_counts.size(); ++c)
        right_counts[c] -= left_counts[c];
      const double right_weight = total_weight - left_weight;
      const double child_gini =
          (left_weight * gini_from_counts(left_counts, left_weight) +
           right_weight * gini_from_counts(right_counts, right_weight)) /
          total_weight;
      const double gain = parent_gini - child_gini;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = 0.5 * (v + v_next);
      }
    }
  }

  if (best_feature < 0) return make_leaf(data, rows, weights);

  // Gini importance: impurity decrease weighted by how much of the
  // training mass reaches this split.
  importances_[static_cast<std::size_t>(best_feature)] +=
      best_gain * total_weight;

  std::vector<std::size_t> left_rows, right_rows;
  for (const std::size_t r : rows) {
    if (data.at(r, static_cast<std::size_t>(best_feature)) <=
        best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  require(!left_rows.empty() && !right_rows.empty(),
          "DecisionTree: degenerate split");

  const int me = static_cast<int>(nodes_.size());
  nodes_.emplace_back();  // placeholder; children indices filled below
  nodes_[static_cast<std::size_t>(me)].feature = best_feature;
  nodes_[static_cast<std::size_t>(me)].threshold = best_threshold;
  const int left = build(data, left_rows, weights, depth + 1, rng);
  const int right = build(data, right_rows, weights, depth + 1, rng);
  nodes_[static_cast<std::size_t>(me)].left = left;
  nodes_[static_cast<std::size_t>(me)].right = right;
  return me;
}

void DecisionTree::fit(const Dataset& data,
                       const std::vector<std::size_t>& indices,
                       const std::vector<double>& weights, Rng* rng) {
  require(data.size() > 0, "DecisionTree: empty dataset");
  require(weights.empty() || weights.size() == data.size(),
          "DecisionTree: weights size mismatch");
  nodes_.clear();
  num_classes_ = data.num_classes();
  importances_.assign(data.num_features(), 0.0);
  std::vector<std::size_t> rows = indices;
  if (rows.empty()) {
    rows.resize(data.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
  }
  build(data, rows, weights, 0, rng);
  double total_importance = 0.0;
  for (const double imp : importances_) total_importance += imp;
  if (total_importance > 0.0) {
    for (double& imp : importances_) imp /= total_importance;
  }
}

std::vector<double> DecisionTree::predict_proba(
    std::span<const double> x) const {
  require(trained(), "DecisionTree: not trained");
  int at = 0;
  while (nodes_[static_cast<std::size_t>(at)].feature >= 0) {
    const Node& n = nodes_[static_cast<std::size_t>(at)];
    at = (x[static_cast<std::size_t>(n.feature)] <= n.threshold) ? n.left
                                                                 : n.right;
  }
  return nodes_[static_cast<std::size_t>(at)].class_weights;
}

int DecisionTree::predict(std::span<const double> x) const {
  const auto proba = predict_proba(x);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) -
                          proba.begin());
}

}  // namespace hpas::ml
