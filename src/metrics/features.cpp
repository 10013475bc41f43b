#include "metrics/features.hpp"

#include "common/stats.hpp"

namespace hpas::metrics {

const std::vector<std::string>& feature_statistic_names() {
  static const std::vector<std::string> kNames = {
      "mean", "std",  "min",  "max",  "p05",  "p25",
      "p50",  "p75",  "p95",  "skew", "kurt", "slope"};
  return kNames;
}

std::size_t features_per_metric() { return feature_statistic_names().size(); }

std::vector<double> extract_series_features(std::span<const double> values) {
  if (values.empty())
    return std::vector<double>(features_per_metric(), 0.0);
  const Summary s = summarize(values);
  return {
      s.mean,
      s.stddev,
      s.min,
      s.max,
      percentile(values, 5.0),
      percentile(values, 25.0),
      percentile(values, 50.0),
      percentile(values, 75.0),
      percentile(values, 95.0),
      s.skewness,
      s.kurtosis,
      index_slope(values),
  };
}

}  // namespace hpas::metrics
