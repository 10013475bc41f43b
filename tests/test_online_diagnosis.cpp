// End-to-end test of the runtime diagnosis phase: train offline, then
// classify sliding windows of a live (simulated) run where an anomaly
// starts midway -- the paper's "predicts the root cause of performance
// variations occurring at certain times".
#include <gtest/gtest.h>

#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "common/error.hpp"
#include "dataset/factory.hpp"
#include "ml/diagnosis.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"

namespace hpas::ml {
namespace {

DiagnosisDataOptions training_options() {
  DiagnosisDataOptions options;
  options.classes = {"none", "memleak", "cpuoccupy"};
  options.variants_per_app = 2;
  options.run_duration_s = 50.0;
  options.warmup_s = 5.0;
  // Train noise-free: the online windows are extracted noise-free too.
  options.measurement_noise = 0.0;
  return options;
}

class OnlineDiagnosisTest : public ::testing::Test {
 protected:
  static const OnlineDiagnoser& diagnoser() {
    static const OnlineDiagnoser kDiagnoser(
        dataset::build_dataset(dataset::plan_from_diagnosis(training_options()),
                               /*threads=*/1),
        {.window_s = 45.0, .hop_s = 45.0, .include_bandwidth_metrics = false});
    return kDiagnoser;
  }
};

TEST_F(OnlineDiagnosisTest, ClassNamesExposed) {
  EXPECT_EQ(diagnoser().class_names().size(), 3u);
  EXPECT_STREQ(diagnoser().class_name(0), "none");
  EXPECT_STREQ(diagnoser().class_name(2), "cpuoccupy");
  EXPECT_THROW(diagnoser().class_name(3), InvariantError);
}

TEST_F(OnlineDiagnosisTest, DetectsAnomalyOnsetMidRun) {
  // Healthy for 60 s, then cpuoccupy appears and stays.
  auto world = sim::make_voltrino_world();
  world->enable_monitoring(1.0);
  apps::AppSpec spec = apps::app_by_name("miniGhost");
  spec.iterations = 1000000;
  apps::BspApp app(*world, spec,
                   {.nodes = {0, 4}, .ranks_per_node = 4, .first_core = 0});
  world->simulator().schedule_in(60.0, [&world] {
    simanom::inject_cpuoccupy(*world, 0, 0, 90.0, 1e6);
  });
  world->run_until(160.0);

  // Windows: [5,50) healthy, [95,140) anomalous (clear of the onset).
  const auto& store = world->node_store(0);
  const auto healthy = diagnoser().diagnose(store, 5.0, 51.0);
  const auto anomalous = diagnoser().diagnose(store, 95.0, 141.0);
  ASSERT_FALSE(healthy.empty());
  ASSERT_FALSE(anomalous.empty());
  EXPECT_STREQ(diagnoser().class_name(healthy.front().label), "none");
  EXPECT_STREQ(diagnoser().class_name(anomalous.front().label), "cpuoccupy");
}

TEST_F(OnlineDiagnosisTest, WindowGeometry) {
  auto world = sim::make_voltrino_world();
  world->enable_monitoring(1.0);
  world->run_until(200.0);
  const auto windows = diagnoser().diagnose(world->node_store(0), 0.0, 200.0);
  // hop == window == 45 s -> floor((200-45)/45)+1 = 4 windows.
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_DOUBLE_EQ(windows[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(windows[0].t1, 45.0);
  EXPECT_DOUBLE_EQ(windows[3].t0, 135.0);
}

TEST_F(OnlineDiagnosisTest, ExtractionMatchesTrainingConventions) {
  auto world = sim::make_voltrino_world();
  world->enable_monitoring(1.0);
  world->run_until(60.0);
  const auto features = extract_window_features(world->node_store(0), 5.0,
                                                50.0, false, 0.0, nullptr);
  // 9 metrics x 12 statistics (no bandwidth counter).
  EXPECT_EQ(features.size(), 108u);
  const auto with_bw = extract_window_features(world->node_store(0), 5.0,
                                               50.0, true, 0.0, nullptr);
  EXPECT_EQ(with_bw.size(), 120u);
}

TEST(OnlineDiagnoserValidation, RejectsBadOptions) {
  Dataset tiny;
  tiny.class_names = {"none", "x"};
  tiny.add({1.0}, 0);
  tiny.add({2.0}, 1);
  EXPECT_THROW(OnlineDiagnoser(tiny, {.window_s = 0.0, .hop_s = 1.0}),
               InvariantError);
  EXPECT_THROW(OnlineDiagnoser(Dataset{}, {}), InvariantError);
}

}  // namespace
}  // namespace hpas::ml
