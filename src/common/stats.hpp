// Descriptive statistics over a sample of doubles.
//
// These back two parts of HPAS: (1) the ML diagnosis pipeline extracts
// statistical features from monitoring time series (paper Sec. 5.1), and
// (2) the runner and bench harnesses summarize repeated measurements.
#pragma once

#include <cstddef>
#include <span>

namespace hpas {

/// Summary of one sample of doubles. All moments use the conventional
/// sample (n-1) variance; skewness/kurtosis are the adjusted
/// (Fisher-Pearson) sample estimators, matching what a pandas/scipy feature
/// extraction would produce for the paper's features.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;   ///< sample variance (0 when count < 2)
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double skewness = 0.0;   ///< 0 when count < 3 or stddev == 0
  double kurtosis = 0.0;   ///< excess kurtosis; 0 when count < 4 or stddev == 0
};

Summary summarize(std::span<const double> xs);

double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);

/// Percentile in [0, 100] via linear interpolation between closest ranks
/// (the "linear" / R-7 method used by numpy.percentile). xs need not be
/// sorted; an internal copy is sorted. Throws InvariantError on empty
/// input or pct outside [0, 100] (caller bugs, not configuration).
double percentile(std::span<const double> xs, double pct);

double median(std::span<const double> xs);

/// Least-squares slope of xs against its index (0,1,2,...). Captures the
/// monotone drift that distinguishes memleak's growing footprint from
/// memeater's flat one. Returns 0 for fewer than two points.
double index_slope(std::span<const double> xs);

}  // namespace hpas
