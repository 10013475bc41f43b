// A timestamped series of samples for one metric on one node.
#pragma once

#include <span>
#include <vector>

namespace hpas::metrics {

/// Append-only (timestamp, value) series. Timestamps are seconds (sim time
/// or wall time since collection start) and must be non-decreasing --
/// enforced, because downstream feature extraction assumes ordered samples.
class TimeSeries {
 public:
  void append(double timestamp, double value);

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  std::span<const double> values() const { return values_; }
  std::span<const double> timestamps() const { return timestamps_; }

  double value_at(std::size_t i) const;
  double timestamp_at(std::size_t i) const;

  /// Values with timestamps in [t0, t1); used to window out warmup.
  std::vector<double> values_between(double t0, double t1) const;

  /// First-difference series (v[i+1]-v[i]); converts cumulative counters
  /// (e.g. NIC flit counts) into per-interval rates. Empty for size < 2.
  std::vector<double> deltas() const;

 private:
  std::vector<double> timestamps_;
  std::vector<double> values_;
};

}  // namespace hpas::metrics
