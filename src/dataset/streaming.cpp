#include "dataset/streaming.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "metrics/features.hpp"

namespace hpas::dataset {

StreamingFeatureExtractor::StreamingFeatureExtractor(
    StreamingExtractorConfig config)
    : config_(std::move(config)) {
  require(config_.metrics.size() == config_.gauge.size(),
          "StreamingFeatureExtractor: gauge flags must parallel metrics");
  require(config_.window_t1 > config_.window_t0,
          "StreamingFeatureExtractor: empty window");
  // The t=0 monitoring sample fires before a sink can observe anything
  // scenario-specific; a window starting at 0 would depend on sink
  // attachment order. Every real window excludes warmup anyway.
  require(config_.window_t0 > 0.0,
          "StreamingFeatureExtractor: window must start after t=0");
  slots_.resize(config_.metrics.size());
  for (std::size_t i = 0; i < config_.metrics.size(); ++i) {
    slots_[i].gauge = config_.gauge[i] != 0;
    const bool inserted = slot_of_.emplace(config_.metrics[i], i).second;
    require(inserted, "StreamingFeatureExtractor: duplicate feature metric");
  }
}

void StreamingFeatureExtractor::buffer(Slot& slot, double value) {
  slot.window.push_back(value);
  ++buffered_;
  peak_buffered_ = std::max(peak_buffered_, buffered_);
}

void StreamingFeatureExtractor::on_sample(const metrics::MetricId& id,
                                          double timestamp, double value) {
  ++samples_seen_;
  const auto it = slot_of_.find(id);
  if (it == slot_of_.end()) {
    ++samples_other_metrics_;
    return;
  }
  if (timestamp < config_.window_t0 || timestamp >= config_.window_t1) {
    ++samples_out_of_window_;
    return;
  }
  ++samples_in_window_;
  Slot& slot = slots_[it->second];
  if (slot.gauge) {
    buffer(slot, value);
    return;
  }
  // Counter: difference into per-interval rates, reproducing the batch
  // window-then-diff semantics exactly -- n samples yield n-1 diffs, a
  // single sample stays one raw value (handled at finalize), zero stay
  // empty.
  if (!slot.has_first) {
    slot.has_first = true;
    slot.first = value;
    slot.prev = value;
    return;
  }
  const double diff = value - slot.prev;
  slot.prev = value;
  buffer(slot, diff);
}

std::vector<double> StreamingFeatureExtractor::finalize(Rng* noise_rng) {
  require(!finalized_, "StreamingFeatureExtractor: finalize called twice");
  finalized_ = true;
  std::vector<double> features;
  features.reserve(slots_.size() * metrics::features_per_metric());
  std::vector<double> single(1);
  for (Slot& slot : slots_) {
    // A counter with exactly one in-window sample never reaches buffer()
    // (differencing needs two); the batch extractor keeps the raw value.
    std::vector<double>* window = &slot.window;
    if (!slot.gauge && slot.has_first && slot.window.empty()) {
      single[0] = slot.first;
      window = &single;
    }
    if (noise_rng != nullptr && config_.noise > 0.0) {
      for (double& v : *window) v *= 1.0 + noise_rng->normal(0.0, config_.noise);
    }
    const auto f = metrics::extract_series_features(*window);
    features.insert(features.end(), f.begin(), f.end());
  }
  return features;
}

void StreamingFeatureExtractor::reset() {
  for (Slot& slot : slots_) {
    slot.has_first = false;
    slot.first = 0.0;
    slot.prev = 0.0;
    slot.window.clear();  // keeps capacity: no steady-state allocation
  }
  samples_seen_ = 0;
  samples_in_window_ = 0;
  samples_out_of_window_ = 0;
  samples_other_metrics_ = 0;
  buffered_ = 0;
  finalized_ = false;
}

}  // namespace hpas::dataset
