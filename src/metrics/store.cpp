#include "metrics/store.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hpas::metrics {

bool MetricStore::contains(const MetricId& id) const {
  return series_.count(id) > 0;
}

const TimeSeries& MetricStore::series(const MetricId& id) const {
  const auto it = series_.find(id);
  require(it != series_.end(), "MetricStore: unknown metric " + id.full_name());
  return it->second;
}

std::vector<MetricId> MetricStore::metric_ids() const {
  std::vector<MetricId> ids;
  ids.reserve(series_.size());
  for (const auto& [id, ts] : series_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace hpas::metrics
