// Tests for descriptive statistics (common/stats.hpp).
#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace hpas {
namespace {

TEST(Summarize, KnownSample) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Summarize, EmptyAndSingleton) {
  EXPECT_EQ(summarize({}).count, 0u);
  const Summary s = summarize(std::vector<double>{3.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.variance, 0.0);
  EXPECT_DOUBLE_EQ(s.skewness, 0.0);
}

TEST(Summarize, ConstantSeriesHasZeroHigherMoments) {
  const std::vector<double> xs(10, 4.2);
  const Summary s = summarize(xs);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.skewness, 0.0);
  EXPECT_DOUBLE_EQ(s.kurtosis, 0.0);
}

TEST(Summarize, SkewSignMatchesAsymmetry) {
  // Right tail -> positive skewness; mirrored -> negative.
  const std::vector<double> right = {1, 1, 1, 2, 2, 3, 10};
  const std::vector<double> left = {-1, -1, -1, -2, -2, -3, -10};
  EXPECT_GT(summarize(right).skewness, 0.5);
  EXPECT_LT(summarize(left).skewness, -0.5);
}

TEST(Percentile, MatchesNumpyLinearInterpolation) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 1.75);  // numpy default ("linear")
}

TEST(Percentile, UnsortedInputHandled) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(median(xs), 5.0);
}

TEST(Percentile, ErrorsOnEmptyOrBadPct) {
  EXPECT_THROW(percentile({}, 50), InvariantError);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile(xs, -1), InvariantError);
  EXPECT_THROW(percentile(xs, 101), InvariantError);
}

TEST(IndexSlope, ExactForLinearSeries) {
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(3.0 + 2.5 * i);
  EXPECT_NEAR(index_slope(xs), 2.5, 1e-12);
}

TEST(IndexSlope, ZeroForConstantAndShortSeries) {
  EXPECT_DOUBLE_EQ(index_slope(std::vector<double>{5.0}), 0.0);
  EXPECT_NEAR(index_slope(std::vector<double>(10, 7.0)), 0.0, 1e-12);
}

}  // namespace
}  // namespace hpas
