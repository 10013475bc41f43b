// SampleSink: streaming observer for monitoring samples.
//
// A Collector normally appends every sample to its MetricStore; a sink
// sees the same (id, timestamp, value) stream as it is produced. The
// dataset factory attaches one per scenario and disables storage, so
// features are folded online and the store never materializes -- peak
// memory stays O(metrics x window) regardless of scenario duration.
//
// Sinks are observation-only: they must not mutate the world or the
// collector, so attaching one cannot perturb simulation determinism.
#pragma once

#include "metrics/metric_id.hpp"

namespace hpas::metrics {

class SampleSink {
 public:
  virtual ~SampleSink() = default;

  /// Called once per sample, in collection order (samplers in
  /// registration order, samples in each sampler's emission order,
  /// timestamps non-decreasing) -- the exact order the store's series
  /// would have been appended in.
  virtual void on_sample(const MetricId& id, double timestamp,
                         double value) = 0;
};

}  // namespace hpas::metrics
