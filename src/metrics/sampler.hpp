// Sampler interface: the LDMS-plugin equivalent.
//
// A sampler, when polled, emits a set of (metric, value) pairs. Samplers
// exist for the host OS (/proc/stat, /proc/meminfo) and for the simulated
// cluster (each sim node exposes procstat/meminfo/spapi/aries_nic_mmr
// samplers backed by the resource models' counters).
#pragma once

#include <string>
#include <vector>

#include "metrics/metric_id.hpp"

namespace hpas::metrics {

struct Sample {
  MetricId id;
  double value = 0.0;
};

class Sampler {
 public:
  virtual ~Sampler() = default;

  /// The sampler name that appears after "::" in metric names.
  virtual std::string name() const = 0;

  /// Polls current values. Counter-style metrics report cumulative values
  /// (monotone); gauge-style metrics report instantaneous values, matching
  /// /proc semantics.
  ///
  /// Returns a view of a buffer the sampler owns, so a sampler with a
  /// fixed metric set can poll without allocating. The view (and every
  /// `id` in it) stays valid until the next sample() call or the
  /// sampler's destruction; a caller that keeps a sample set copies it
  /// (`const auto before = sampler.sample();`). The metric set may differ
  /// from poll to poll.
  virtual const std::vector<Sample>& sample() = 0;
};

}  // namespace hpas::metrics
