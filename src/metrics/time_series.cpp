#include "metrics/time_series.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hpas::metrics {

void TimeSeries::append(double timestamp, double value) {
  require(timestamps_.empty() || timestamp >= timestamps_.back(),
          "TimeSeries: timestamps must be non-decreasing");
  timestamps_.push_back(timestamp);
  values_.push_back(value);
}

double TimeSeries::value_at(std::size_t i) const {
  require(i < values_.size(), "TimeSeries: index out of range");
  return values_[i];
}

double TimeSeries::timestamp_at(std::size_t i) const {
  require(i < timestamps_.size(), "TimeSeries: index out of range");
  return timestamps_[i];
}

std::vector<double> TimeSeries::values_between(double t0, double t1) const {
  const auto lo = std::lower_bound(timestamps_.begin(), timestamps_.end(), t0);
  const auto hi = std::lower_bound(timestamps_.begin(), timestamps_.end(), t1);
  const auto lo_idx = static_cast<std::size_t>(lo - timestamps_.begin());
  const auto hi_idx = static_cast<std::size_t>(hi - timestamps_.begin());
  return {values_.begin() + static_cast<std::ptrdiff_t>(lo_idx),
          values_.begin() + static_cast<std::ptrdiff_t>(hi_idx)};
}

std::vector<double> TimeSeries::deltas() const {
  if (values_.size() < 2) return {};
  std::vector<double> out;
  out.reserve(values_.size() - 1);
  for (std::size_t i = 1; i < values_.size(); ++i)
    out.push_back(values_[i] - values_[i - 1]);
  return out;
}

}  // namespace hpas::metrics
