#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace hpas {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;

  double sum = 0.0;
  s.min = xs[0];
  s.max = xs[0];
  for (const double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  const auto n = static_cast<double>(xs.size());
  s.mean = sum / n;

  if (xs.size() >= 2) {
    double m2 = 0.0, m3 = 0.0, m4 = 0.0;
    for (const double x : xs) {
      const double d = x - s.mean;
      m2 += d * d;
      m3 += d * d * d;
      m4 += d * d * d * d;
    }
    s.variance = m2 / (n - 1.0);
    // A constant series can accumulate ~eps^2-sized m2 through the mean's
    // rounding; treat it as exactly constant so the standardized moments
    // below don't amplify pure noise.
    if (s.variance <= 1e-20 * (1.0 + s.mean * s.mean)) {
      s.variance = 0.0;
      return s;
    }
    s.stddev = std::sqrt(s.variance);
    if (xs.size() >= 3 && s.stddev > 0.0) {
      // Adjusted Fisher-Pearson standardized moment coefficient.
      const double g1 = (m3 / n) / std::pow(m2 / n, 1.5);
      s.skewness = std::sqrt(n * (n - 1.0)) / (n - 2.0) * g1;
    }
    if (xs.size() >= 4 && s.stddev > 0.0) {
      const double g2 = (m4 / n) / ((m2 / n) * (m2 / n)) - 3.0;
      s.kurtosis = (n - 1.0) / ((n - 2.0) * (n - 3.0)) *
                   ((n + 1.0) * g2 + 6.0);
    }
  }
  return s;
}

double mean(std::span<const double> xs) { return summarize(xs).mean; }
double stddev(std::span<const double> xs) { return summarize(xs).stddev; }

double percentile(std::span<const double> xs, double pct) {
  require(!xs.empty(), "percentile: empty input");
  require(pct >= 0.0 && pct <= 100.0, "percentile: pct out of [0,100]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo_idx = static_cast<std::size_t>(std::floor(rank));
  const auto hi_idx = std::min(lo_idx + 1, sorted.size() - 1);
  const double frac = rank - std::floor(rank);
  return sorted[lo_idx] + frac * (sorted[hi_idx] - sorted[lo_idx]);
}

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double index_slope(std::span<const double> xs) {
  const std::size_t n = xs.size();
  if (n < 2) return 0.0;
  const double nd = static_cast<double>(n);
  const double x_mean = (nd - 1.0) / 2.0;
  double y_mean = 0.0;
  for (const double y : xs) y_mean += y;
  y_mean /= nd;
  double sxy = 0.0, sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = static_cast<double>(i) - x_mean;
    sxy += dx * (xs[i] - y_mean);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

}  // namespace hpas
