// hpas-sim -- run one scenario on the simulated cluster and export the
// monitoring data as CSV (one file per node, LDMS-style metric columns).
//
// Examples:
//   hpas-sim --app miniGhost --anomaly membw --duration 120 -o run1
//   hpas-sim --preset chameleon --anomaly iobandwidth --duration 60 -o io
//   hpas-sim --app sw4lite --duration 300 -o healthy     # no anomaly
//
// The CSVs feed external analysis pipelines (pandas, scikit-learn, ...)
// exactly like LDMS dumps would; the ML pipeline in src/ml consumes the
// same data in-process.
//
// Reproducibility workflow:
//   hpas-sim ... --trace run.bin -o out        # record a structured trace
//   hpas-sim ... --check-trace run.bin -o out  # re-run + diff against it
// --check-trace exits 3 and names the first divergent event when the
// re-run does not reproduce the recorded stream bit for bit.
//
// SIGINT/SIGTERM stop the simulation cooperatively at the next event
// boundary: the CSVs and (truncated, kRunCancelled-terminated) trace
// collected so far are still written. A second signal exits 130
// immediately.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "apps/bsp_app.hpp"
#include "apps/profiles.hpp"
#include "common/cancel.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/units.hpp"
#include "metrics/csv.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"
#include "trace/tracer.hpp"

namespace {

hpas::CliParser make_parser() {
  hpas::CliParser parser("hpas-sim",
                         "simulated-cluster scenario runner with CSV export");
  parser
      .add({.long_name = "preset", .short_name = 'p', .value_name = "NAME",
            .help = "cluster preset: voltrino, chameleon or dragonfly1k",
            .default_value = "voltrino"})
      .add({.long_name = "app", .short_name = 'a', .value_name = "NAME",
            .help = "proxy application (empty = idle cluster)",
            .default_value = ""})
      .add({.long_name = "ranks", .short_name = 'r', .value_name = "N",
            .help = "ranks per node for the application",
            .default_value = "4"})
      .add({.long_name = "anomaly", .short_name = 'x', .value_name = "NAME",
            .help = "anomaly to inject on --anomaly-node (empty = none)",
            .default_value = ""})
      .add({.long_name = "anomaly-node", .short_name = '\0',
            .value_name = "ID", .help = "node hosting the anomaly",
            .default_value = "0"})
      .add({.long_name = "anomaly-core", .short_name = '\0',
            .value_name = "ID", .help = "core hosting the anomaly",
            .default_value = "0"})
      .add({.long_name = "intensity", .short_name = 'i', .value_name = "X",
            .help = "anomaly intensity scale", .default_value = "1.0"})
      .add({.long_name = "fail-at", .short_name = '\0', .value_name = "TIME",
            .help = "kill injector tasks at this simulated time "
                    "(models a degraded injector; empty = never)",
            .default_value = ""})
      .add({.long_name = "fail-tasks", .short_name = '\0',
            .value_name = "N",
            .help = "how many injector tasks die at --fail-at (0 = all)",
            .default_value = "0"})
      .add({.long_name = "duration", .short_name = 'd', .value_name = "TIME",
            .help = "simulated time to run", .default_value = "120s"})
      .add({.long_name = "sample-period", .short_name = '\0',
            .value_name = "TIME", .help = "monitoring cadence",
            .default_value = "1s"})
      .add({.long_name = "trace", .short_name = '\0', .value_name = "FILE",
            .help = "record a structured binary trace to FILE",
            .default_value = ""})
      .add({.long_name = "check-trace", .short_name = '\0',
            .value_name = "FILE",
            .help = "re-run and verify bit-exact replay against FILE",
            .default_value = ""})
      .add({.long_name = "output", .short_name = 'o', .value_name = "PREFIX",
            .help = "CSV path prefix (writes PREFIX.node<i>.csv)",
            .default_value = std::nullopt, .required = true});
  return parser;
}

int run(const hpas::ParsedArgs& args) {
  const std::string preset = args.value("preset");
  std::unique_ptr<hpas::sim::World> world;
  if (preset == "voltrino") {
    world = hpas::sim::make_voltrino_world();
  } else if (preset == "chameleon") {
    world = hpas::sim::make_chameleon_world();
  } else if (preset == "dragonfly1k") {
    world = hpas::sim::make_dragonfly_world();
  } else {
    throw hpas::ConfigError("unknown preset '" + preset +
                            "' (expected voltrino, chameleon or dragonfly1k)");
  }

  const double duration = hpas::flag_duration_seconds(args, "duration");
  const double period =
      hpas::flag_duration_seconds(args, "sample-period");

  const std::string trace_path = args.value("trace");
  const std::string check_path = args.value("check-trace");
  std::optional<hpas::trace::TraceCapture> capture;
  if (!trace_path.empty() || !check_path.empty()) {
    // Attach before monitoring and injection: the trace must cover the
    // whole scenario or replay checking would diverge on the prefix.
    capture.emplace();
    world->attach_tracer(&capture->tracer());
  }
  world->enable_monitoring(period);

  const std::string anomaly = args.value("anomaly");
  if (!anomaly.empty()) {
    const auto injected = hpas::simanom::inject_by_name(
        *world, anomaly,
        static_cast<int>(hpas::flag_u64(args, "anomaly-node")),
        static_cast<int>(hpas::flag_u64(args, "anomaly-core")),
        duration, hpas::flag_double(args, "intensity"));
    const std::string fail_at = args.value("fail-at");
    if (!fail_at.empty()) {
      const int fail_tasks =
          static_cast<int>(hpas::flag_u64(args, "fail-tasks"));
      hpas::simanom::schedule_injector_failure(
          *world, injected, hpas::flag_duration_seconds(args, "fail-at"),
          fail_tasks == 0 ? -1 : fail_tasks);
    }
  }

  std::unique_ptr<hpas::apps::BspApp> app;
  const std::string app_name = args.value("app");
  if (!app_name.empty()) {
    hpas::apps::AppSpec spec = hpas::apps::app_by_name(app_name);
    spec.iterations = 1000000000;  // run for the whole window
    const int peer = world->num_nodes() / 2;  // span switch groups
    app = std::make_unique<hpas::apps::BspApp>(
        *world, spec,
        hpas::apps::BspApp::Placement{
            .nodes = {0, peer},
            .ranks_per_node =
                static_cast<int>(hpas::flag_u64(args, "ranks")),
            .first_core = 0});
  }

  // First signal: cancel cooperatively at the next event boundary and
  // fall through to the normal export path with whatever was simulated.
  // Second signal: exit 130 right from the watcher thread.
  static hpas::CancelToken cancel;
  hpas::ShutdownController::instance().install();
  const std::uint64_t subscription =
      hpas::ShutdownController::instance().subscribe([](int count) {
        if (count == 1) {
          cancel.cancel(hpas::CancelReason::kShutdown);
          std::fprintf(stderr,
                       "\nhpas-sim: stopping at the next event boundary; "
                       "signal again to abort\n");
        } else {
          std::_Exit(130);
        }
      });
  world->set_cancel_token(&cancel);

  bool interrupted = false;
  try {
    world->run_until(duration);
  } catch (const hpas::CancelledError& e) {
    interrupted = true;
    if (capture) {
      // Close the truncated trace so the partial capture says why it ends.
      capture->tracer().set_time(world->now());
      capture->tracer().emit(hpas::trace::RecordKind::kRunCancelled, 0,
                             static_cast<std::uint16_t>(e.reason()), 0,
                             world->now());
    }
  }
  hpas::ShutdownController::instance().unsubscribe(subscription);

  if (capture) {
    const hpas::trace::TraceFile fresh = capture->take();
    if (!trace_path.empty()) {
      hpas::trace::write_binary_file(trace_path, fresh);
      std::printf("hpas-sim: trace: %zu records -> %s\n",
                  fresh.records.size(), trace_path.c_str());
    }
    if (!check_path.empty() && interrupted) {
      std::fprintf(stderr,
                   "hpas-sim: replay check skipped: run was interrupted, "
                   "the truncated trace cannot be compared\n");
    } else if (!check_path.empty()) {
      const hpas::trace::TraceFile recorded =
          hpas::trace::read_binary_file(check_path);
      const auto divergence = hpas::trace::diff_traces(recorded, fresh);
      if (divergence.diverged) {
        std::fprintf(stderr, "hpas-sim: replay check FAILED: %s\n",
                     divergence.description.c_str());
        return 3;
      }
      std::printf("hpas-sim: replay check passed (%zu records match %s)\n",
                  fresh.records.size(), check_path.c_str());
    }
  }

  const std::string prefix = args.value("output");
  for (int node = 0; node < world->num_nodes(); ++node) {
    const std::string path =
        prefix + ".node" + std::to_string(node) + ".csv";
    hpas::metrics::write_csv_file(path, world->node_store(node));
  }
  std::printf("hpas-sim: %s for %s, %d nodes -> %s.node*.csv\n",
              app_name.empty() ? "idle" : app_name.c_str(),
              hpas::format_seconds(duration).c_str(), world->num_nodes(),
              prefix.c_str());
  if (interrupted)
    std::printf("hpas-sim: interrupted at t=%s (outputs cover the "
                "simulated prefix)\n",
                hpas::format_seconds(world->now()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto parser = make_parser();
    const auto args =
        parser.parse(std::vector<std::string>(argv + 1, argv + argc));
    if (args.flag("help")) {
      std::fputs(parser.help_text().c_str(), stdout);
      return 0;
    }
    return run(args);
  } catch (const hpas::ConfigError& e) {
    std::fprintf(stderr, "hpas-sim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hpas-sim: fatal: %s\n", e.what());
    return 1;
  }
}
