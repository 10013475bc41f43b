// online_monitor: continuous anomaly diagnosis on a live system.
//
// The production loop the paper's framework targets: train offline on
// labeled HPAS runs, then watch a running cluster and name the root
// cause whenever a node deviates. Here the "cluster" is the simulated
// Voltrino and the incident is scripted -- a memleak that starts at
// t=120s and is killed (OOM) around t=400s -- but the monitoring path is
// exactly what a deployment would run against LDMS data.
#include <cstdio>

#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "dataset/factory.hpp"
#include "ml/diagnosis.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"

int main() {
  // ---- offline: train on labeled synthetic runs. ---------------------
  std::printf("training diagnosis model on labeled HPAS runs...\n");
  hpas::ml::DiagnosisDataOptions training;
  training.classes = {"none", "memleak", "cpuoccupy", "membw"};
  training.variants_per_app = 2;
  training.measurement_noise = 0.0;  // match the online extraction
  const hpas::ml::OnlineDiagnoser diagnoser(
      hpas::dataset::build_dataset(
          hpas::dataset::plan_from_diagnosis(training), /*threads=*/0),
      {.window_s = 45.0, .hop_s = 30.0, .include_bandwidth_metrics = false});

  // ---- "production": an app runs; trouble arrives at t=120s. ---------
  std::printf("running the cluster (memleak incident at t=120s)...\n\n");
  auto world = hpas::sim::make_voltrino_world();
  world->enable_monitoring(1.0);
  hpas::apps::AppSpec spec = hpas::apps::app_by_name("miniAMR");
  spec.iterations = 1000000;
  hpas::apps::BspApp app(*world, spec,
                         {.nodes = {0, 4}, .ranks_per_node = 4,
                          .first_core = 0});
  world->simulator().schedule_in(120.0, [&world] {
    hpas::simanom::inject_memleak(*world, 0, 8, 400.0 * 1024 * 1024, 1.0,
                                  600.0);
  });
  world->run_until(360.0);

  // ---- diagnose the monitoring stream window by window. --------------
  std::printf("%10s %10s   %s\n", "window", "", "diagnosis (node 0)");
  int alerts = 0;
  for (const auto& window :
       diagnoser.diagnose(world->node_store(0), 0.0, 360.0)) {
    const char* verdict = diagnoser.class_name(window.label);
    const bool alert = std::string(verdict) != "none";
    alerts += alert ? 1 : 0;
    std::printf("%7.0fs - %5.0fs   %s%s\n", window.t0, window.t1, verdict,
                alert ? "   <-- ALERT" : "");
  }
  std::printf("\n%d alert window(s); the leak was injected at t=120s.\n",
              alerts);
  return 0;
}
