// Statistical feature extraction from monitoring time series.
//
// The paper's diagnosis framework (Sec. 5.1, following Tuncer et al.)
// computes statistical features over windows of each collected metric and
// feeds them to tree-based classifiers. We extract, per metric series:
// mean, stddev, min, max, 5th/25th/50th/75th/95th percentiles, skewness,
// kurtosis, and the linear slope over the window (the slope is what
// separates memleak's monotone growth from memeater's flat plateau).
#pragma once

#include <span>
#include <string>
#include <vector>

namespace hpas::metrics {

/// Names of the per-series statistics, in extraction order.
const std::vector<std::string>& feature_statistic_names();

/// Number of statistics extracted per metric series.
std::size_t features_per_metric();

/// Extracts the feature vector for one series window.
std::vector<double> extract_series_features(std::span<const double> values);

}  // namespace hpas::metrics
