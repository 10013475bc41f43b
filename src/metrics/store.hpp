// Storage for collected monitoring data of one node/run.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/metric_id.hpp"
#include "metrics/time_series.hpp"

namespace hpas::metrics {

/// All time series collected for one entity (one node, one run).
/// Metric ids are created lazily on first append. Series are never
/// removed, so a reference from series_for() stays valid for the store's
/// lifetime.
class MetricStore {
 public:
  void record(const MetricId& id, double timestamp, double value);

  /// The series of `id`, created empty if absent.
  TimeSeries& series_for(const MetricId& id) { return series_[id]; }

  bool contains(const MetricId& id) const;
  const TimeSeries& series(const MetricId& id) const;  ///< throws if absent

  /// All metric ids, sorted by full name for deterministic iteration.
  std::vector<MetricId> metric_ids() const;

  std::size_t metric_count() const { return series_.size(); }

 private:
  std::unordered_map<MetricId, TimeSeries> series_;
};

}  // namespace hpas::metrics
