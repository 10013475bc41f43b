#include "metrics/collector.hpp"

#include "common/error.hpp"

namespace hpas::metrics {

Collector::Collector(MetricStore* store) : store_(store) {
  require(store != nullptr, "Collector: store must not be null");
}

void Collector::add_sampler(std::shared_ptr<Sampler> sampler) {
  require(sampler != nullptr, "Collector: sampler must not be null");
  samplers_.push_back(std::move(sampler));
  slots_.emplace_back();
}

void Collector::collect(double timestamp) {
  if (!store_enabled_ && sink_ == nullptr) return;
  for (std::size_t k = 0; k < samplers_.size(); ++k) {
    const std::vector<Sample>& samples = samplers_[k]->sample();
    std::vector<Slot>& slots = slots_[k];
    if (slots.size() < samples.size()) slots.resize(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const Sample& s = samples[i];
      if (store_enabled_) {
        Slot& slot = slots[i];
        if (slot.series == nullptr || slot.id != s.id) {
          slot.id = s.id;
          slot.series = &store_->series_for(s.id);
        }
        slot.series->append(timestamp, s.value);
      }
      if (sink_ != nullptr) sink_->on_sample(s.id, timestamp, s.value);
    }
  }
}

}  // namespace hpas::metrics
