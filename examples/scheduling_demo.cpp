// scheduling_demo: evaluate a job-allocation policy under controlled
// anomalies -- the paper's use case 2 (Sec. 5.2).
//
// HPAS's pitch: because the anomalies are *injected*, you can change the
// CPU-load and free-memory components independently and watch how a
// policy responds. This demo sweeps the cpuoccupy intensity on node 0
// and reports which nodes WBAS picks and the resulting job time,
// compared against Round-Robin.
#include <cstdio>
#include <string>
#include <utility>

#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "sched/monitor.hpp"
#include "sched/policies.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"

namespace {

double run_with_policy(const hpas::sched::AllocationPolicy& policy,
                       double hog_utilization_pct, std::string* picked) {
  auto world = hpas::sim::make_voltrino_world();
  if (hog_utilization_pct > 0.0) {
    hpas::simanom::inject_cpuoccupy(*world, 0, 0, hog_utilization_pct, 1e6);
  }
  hpas::sched::NodeMonitor monitor(*world, 10.0);
  monitor.start();
  world->run_until(60.0);

  const auto nodes = policy.select_nodes(monitor.status(), 4);
  std::string list = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) list += ",";
    list += std::to_string(nodes[i]);
  }
  list += "]";
  *picked = std::move(list);

  hpas::apps::AppSpec spec = hpas::apps::app_by_name("miniGhost");
  spec.iterations = 60;
  hpas::apps::BspApp app(*world, spec,
                         {.nodes = nodes, .ranks_per_node = 4,
                          .first_core = 0});
  return app.run_to_completion();
}

}  // namespace

int main() {
  const hpas::sched::RoundRobinPolicy rr;
  const hpas::sched::WbasPolicy wbas;

  std::printf("%-14s %-12s %10s %-12s %10s\n", "hog intensity", "RR nodes",
              "RR time", "WBAS nodes", "WBAS time");
  for (const double intensity : {0.0, 50.0, 100.0}) {
    std::string rr_nodes, wbas_nodes;
    const double rr_time = run_with_policy(rr, intensity, &rr_nodes);
    const double wbas_time = run_with_policy(wbas, intensity, &wbas_nodes);
    std::printf("%12.0f%% %-12s %9.1fs %-12s %9.1fs\n", intensity,
                rr_nodes.c_str(), rr_time, wbas_nodes.c_str(), wbas_time);
  }
  std::printf(
      "\nWBAS routes around the hogged node as soon as the monitor sees\n"
      "the load; Round-Robin keeps landing on it.\n");
  return 0;
}
