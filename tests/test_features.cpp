// Tests for statistical feature extraction: the per-series statistics
// (metrics/features.hpp) and the diagnosis window over a store
// (ml::extract_window_features).
#include "metrics/features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "metrics/store.hpp"
#include "ml/diagnosis.hpp"

namespace hpas::metrics {
namespace {

TEST(Features, StatisticNamesAndCountAgree) {
  EXPECT_EQ(feature_statistic_names().size(), features_per_metric());
  EXPECT_EQ(features_per_metric(), 12u);
}

TEST(Features, EmptySeriesYieldsZeros) {
  const auto f = extract_series_features({});
  ASSERT_EQ(f.size(), features_per_metric());
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Features, KnownSeriesValues) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const auto f = extract_series_features(xs);
  // Order: mean std min max p05 p25 p50 p75 p95 skew kurt slope.
  EXPECT_DOUBLE_EQ(f[0], 3.0);                       // mean
  EXPECT_NEAR(f[1], std::sqrt(2.5), 1e-12);          // sample std
  EXPECT_DOUBLE_EQ(f[2], 1.0);                       // min
  EXPECT_DOUBLE_EQ(f[3], 5.0);                       // max
  EXPECT_DOUBLE_EQ(f[6], 3.0);                       // median
  EXPECT_NEAR(f[9], 0.0, 1e-12);                     // symmetric -> skew 0
  EXPECT_NEAR(f[11], 1.0, 1e-12);                    // slope
}

TEST(Features, SlopeSeparatesLeakFromPlateau) {
  // The memleak-vs-memeater discriminator (see features.hpp docs).
  std::vector<double> leak, plateau;
  for (int i = 0; i < 60; ++i) {
    leak.push_back(1000.0 + 20.0 * i);
    plateau.push_back(i < 5 ? 1000.0 + 200.0 * i : 2000.0);
  }
  const auto f_leak = extract_series_features(leak);
  const auto f_plateau = extract_series_features(plateau);
  EXPECT_GT(f_leak[11], 3.0 * std::abs(f_plateau[11]));
}

/// Offset of `name` (e.g. "Memfree::meminfo#mean") in the diagnosis
/// feature vector.
std::size_t feature_index(const std::vector<std::string>& names,
                          const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  return static_cast<std::size_t>(it - names.begin());
}

TEST(Features, StoreExtractionAlignsAndNames) {
  // The window extraction sweep, dataset and search all use: counters are
  // differenced into rates, gauges (meminfo) used raw.
  MetricStore store;
  for (int t = 0; t < 10; ++t) {
    store.series_for({"user", "procstat"}).append(t, t * 3.0);
    store.series_for({"Memfree", "meminfo"}).append(t, 5.0);
  }
  const auto names = ml::diagnosis_feature_names(ml::DiagnosisDataOptions{});
  const auto f = ml::extract_window_features(store, 0.0, 10.0, false, 0.0,
                                             nullptr);
  ASSERT_EQ(f.size(),
            ml::diagnosis_feature_metrics(false).size() * features_per_metric());
  ASSERT_EQ(names.size(), f.size());
  EXPECT_EQ(names[0], "user::procstat#mean");
  // Counter user: a constant step of 3 -> rate mean 3, std 0.
  EXPECT_DOUBLE_EQ(f[feature_index(names, "user::procstat#mean")], 3.0);
  EXPECT_DOUBLE_EQ(f[feature_index(names, "user::procstat#std")], 0.0);
  // Gauge Memfree: constant 5 -> mean 5, std 0.
  const std::size_t memfree = feature_index(names, "Memfree::meminfo#mean");
  EXPECT_DOUBLE_EQ(f[memfree + 0], 5.0);
  EXPECT_DOUBLE_EQ(f[memfree + 1], 0.0);
  // A missing metric contributes zeros, keeping vectors aligned.
  const std::size_t sys = feature_index(names, "sys::procstat#mean");
  for (std::size_t i = sys; i < sys + features_per_metric(); ++i)
    EXPECT_DOUBLE_EQ(f[i], 0.0);
}

TEST(Features, WindowingRespected) {
  // The window is half-open: [t0, t1).
  MetricStore store;
  for (int t = 0; t < 10; ++t)
    store.series_for({"Memfree", "meminfo"}).append(t, t < 5 ? 0.0 : 100.0);
  const auto names = ml::diagnosis_feature_names(ml::DiagnosisDataOptions{});
  const std::size_t mean = feature_index(names, "Memfree::meminfo#mean");
  const auto early =
      ml::extract_window_features(store, 0.0, 5.0, false, 0.0, nullptr);
  const auto late =
      ml::extract_window_features(store, 5.0, 10.0, false, 0.0, nullptr);
  EXPECT_DOUBLE_EQ(early[mean], 0.0);
  EXPECT_DOUBLE_EQ(late[mean], 100.0);
}

}  // namespace
}  // namespace hpas::metrics
