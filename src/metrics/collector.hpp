// Collector: polls a set of samplers and appends to a MetricStore.
//
// The driving cadence is external: the simulator schedules collect() every
// simulated second (the paper collects 2121 metrics at 1 Hz per node);
// native tooling calls it from a wall-clock loop.
//
// Polling only happens for an observer: with storage disabled and no sink
// attached, collect() returns without touching a sampler. Each series is
// resolved once per (sampler, position) and then appended to directly, so
// a steady-state poll does no hashing and no allocation beyond the series'
// own growth.
#pragma once

#include <memory>
#include <vector>

#include "metrics/sample_sink.hpp"
#include "metrics/sampler.hpp"
#include "metrics/store.hpp"

namespace hpas::metrics {

class Collector {
 public:
  explicit Collector(MetricStore* store);

  /// Registers a sampler; the collector shares ownership so samplers can
  /// also be held by the models that feed them.
  void add_sampler(std::shared_ptr<Sampler> sampler);

  /// Polls every sampler once, tagging all values with `timestamp`. A
  /// no-op (no sampler is polled) when storage is disabled and no sink is
  /// attached.
  void collect(double timestamp);

  /// Streams every collected sample to `sink` in collection order, in
  /// addition to (or, with set_store_enabled(false), instead of) the
  /// store. Non-owning; nullptr detaches.
  void set_sink(SampleSink* sink) { sink_ = sink; }

  /// When disabled, collect() skips the store entirely -- the
  /// store stays empty and per-collector memory stays O(1). Used by the
  /// streaming dataset path; storage is on by default.
  void set_store_enabled(bool enabled) { store_enabled_ = enabled; }

  std::size_t sampler_count() const { return samplers_.size(); }

 private:
  /// The series the sample at one (sampler, position) was last stored in,
  /// keyed by its id: a sampler whose metric set changes between polls
  /// gets the position re-resolved.
  struct Slot {
    MetricId id;
    TimeSeries* series = nullptr;
  };

  MetricStore* store_;  // non-owning; outlives the collector by contract
  SampleSink* sink_ = nullptr;  // non-owning streaming observer
  bool store_enabled_ = true;
  std::vector<std::shared_ptr<Sampler>> samplers_;
  std::vector<std::vector<Slot>> slots_;  // parallel to samplers_
};

}  // namespace hpas::metrics
