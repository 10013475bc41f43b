// Classifier evaluation: confusion matrix, per-class F1, macro-F1 --
// the metrics reported in the paper's Figs. 9 and 10.
#pragma once

#include <vector>

namespace hpas::ml {

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);

  void add(int true_label, int predicted_label);

  int num_classes() const { return static_cast<int>(counts_.size()); }

  double precision(int cls) const;  ///< 0 when the class was never predicted
  double recall(int cls) const;     ///< 0 when the class never occurred
  double f1(int cls) const;
  double macro_f1() const;

  /// Row-normalized matrix (each row sums to 1), the form of Fig. 10.
  std::vector<std::vector<double>> row_normalized() const;

 private:
  std::vector<std::vector<std::size_t>> counts_;  // [true][pred]
};

}  // namespace hpas::ml
