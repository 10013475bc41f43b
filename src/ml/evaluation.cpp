#include "ml/evaluation.hpp"

#include "common/error.hpp"

namespace hpas::ml {

ConfusionMatrix::ConfusionMatrix(int num_classes)
    : counts_(static_cast<std::size_t>(num_classes),
              std::vector<std::size_t>(static_cast<std::size_t>(num_classes),
                                       0)) {
  require(num_classes >= 1, "ConfusionMatrix: need at least one class");
}

void ConfusionMatrix::add(int true_label, int predicted_label) {
  require(true_label >= 0 && true_label < num_classes() &&
              predicted_label >= 0 && predicted_label < num_classes(),
          "ConfusionMatrix: label out of range");
  ++counts_[static_cast<std::size_t>(true_label)]
           [static_cast<std::size_t>(predicted_label)];
}

double ConfusionMatrix::precision(int cls) const {
  const auto c = static_cast<std::size_t>(cls);
  std::size_t predicted = 0;
  for (const auto& row : counts_) predicted += row[c];
  if (predicted == 0) return 0.0;
  return static_cast<double>(counts_[c][c]) / static_cast<double>(predicted);
}

double ConfusionMatrix::recall(int cls) const {
  const auto c = static_cast<std::size_t>(cls);
  std::size_t actual = 0;
  for (const std::size_t v : counts_[c]) actual += v;
  if (actual == 0) return 0.0;
  return static_cast<double>(counts_[c][c]) / static_cast<double>(actual);
}

double ConfusionMatrix::f1(int cls) const {
  const double p = precision(cls);
  const double r = recall(cls);
  if (p + r == 0.0) return 0.0;
  return 2.0 * p * r / (p + r);
}

double ConfusionMatrix::macro_f1() const {
  double sum = 0.0;
  for (int c = 0; c < num_classes(); ++c) sum += f1(c);
  return sum / static_cast<double>(num_classes());
}

std::vector<std::vector<double>> ConfusionMatrix::row_normalized() const {
  std::vector<std::vector<double>> out(
      counts_.size(), std::vector<double>(counts_.size(), 0.0));
  for (std::size_t t = 0; t < counts_.size(); ++t) {
    std::size_t row_total = 0;
    for (const std::size_t c : counts_[t]) row_total += c;
    if (row_total == 0) continue;
    for (std::size_t p = 0; p < counts_.size(); ++p) {
      out[t][p] = static_cast<double>(counts_[t][p]) /
                  static_cast<double>(row_total);
    }
  }
  return out;
}

}  // namespace hpas::ml
