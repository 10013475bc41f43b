// StreamingFeatureExtractor: online, bit-reproducible feature extraction.
//
// The batch diagnosis pipeline materializes a full MetricStore per
// scenario (every sample of every metric for the whole run) and then
// calls ml::extract_window_features over it. This extractor is the
// streaming replacement: it consumes the monitoring sample stream
// incrementally (as a metrics::SampleSink) and keeps, per feature
// metric, only the in-window, post-differencing value buffer: the
// deterministic "sketch" from which rank statistics (percentiles) and
// the two-pass central moments are computed at finalize().
//
// Out-of-window samples and non-feature metrics cost O(1) (a counter
// bump), so peak memory is O(feature_metrics x window_samples) --
// independent of scenario duration and of how many metrics the
// samplers emit. finalize() delegates to the *same*
// metrics::extract_series_features the batch path uses, over exactly
// the bytes the batch path would have assembled, which is what makes
// the streamed feature vector bit-identical to the batch one by
// construction (see DESIGN.md, "Streaming feature algebra").
//
// Counter differencing matches the batch semantics exactly:
//   n in-window samples of a counter -> n-1 first differences;
//   a single sample stays a single raw value; none stays empty.
// Sensor noise is applied at finalize(), metric by metric in feature
// order, because the batch extractor consumes one sequential RNG per
// metric while the sink observes samples time-interleaved.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "metrics/metric_id.hpp"
#include "metrics/sample_sink.hpp"

namespace hpas::dataset {

struct StreamingExtractorConfig {
  /// Feature metrics in extraction order (the feature vector layout).
  std::vector<metrics::MetricId> metrics;
  /// Parallel to `metrics`: true = gauge (used raw), false = cumulative
  /// counter (first-differenced into per-interval rates).
  std::vector<char> gauge;
  double window_t0 = 0.0;  ///< window [t0, t1): warmup excluded
  double window_t1 = 0.0;
  /// Relative sensor noise (see DiagnosisDataOptions::measurement_noise);
  /// applied at finalize() when a noise RNG is supplied.
  double noise = 0.0;
};

class StreamingFeatureExtractor final : public metrics::SampleSink {
 public:
  explicit StreamingFeatureExtractor(StreamingExtractorConfig config);

  /// SampleSink: O(1) for ignored samples, amortized O(1) for in-window
  /// feature samples.
  void on_sample(const metrics::MetricId& id, double timestamp,
                 double value) override;

  /// Assembles the feature vector: per metric in feature order, applies
  /// sensor noise from `noise_rng` (nullptr or noise == 0 -> noise-free)
  /// and computes the per-series statistics via
  /// metrics::extract_series_features. Call once per scenario; reset()
  /// rearms the extractor without releasing buffer capacity.
  std::vector<double> finalize(Rng* noise_rng);

  /// Clears all per-metric state for the next scenario, keeping buffer
  /// capacity (no steady-state allocation when reused across rows).
  void reset();

  std::size_t num_metrics() const { return slots_.size(); }
  /// Stream accounting (window counters): everything the sink saw.
  std::uint64_t samples_seen() const { return samples_seen_; }
  std::uint64_t samples_in_window() const { return samples_in_window_; }
  std::uint64_t samples_out_of_window() const {
    return samples_out_of_window_;
  }
  std::uint64_t samples_other_metrics() const {
    return samples_other_metrics_;
  }
  /// Peak retained doubles across all per-metric buffers -- the memory
  /// bound under test: O(metrics x window), never O(duration).
  std::size_t peak_buffered_values() const { return peak_buffered_; }

 private:
  struct Slot {
    bool gauge = false;
    bool has_first = false;
    double first = 0.0;  ///< first in-window counter sample (raw)
    double prev = 0.0;   ///< last counter sample, for differencing
    /// Gauges: raw in-window values. Counters: first differences.
    std::vector<double> window;
  };

  void buffer(Slot& slot, double value);

  StreamingExtractorConfig config_;
  std::vector<Slot> slots_;
  std::unordered_map<metrics::MetricId, std::size_t> slot_of_;
  std::uint64_t samples_seen_ = 0;
  std::uint64_t samples_in_window_ = 0;
  std::uint64_t samples_out_of_window_ = 0;
  std::uint64_t samples_other_metrics_ = 0;
  std::size_t buffered_ = 0;
  std::size_t peak_buffered_ = 0;
  bool finalized_ = false;
};

}  // namespace hpas::dataset
