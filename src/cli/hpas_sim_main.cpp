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
// A thin front end over runner::run_scenario: the flags become one
// ScenarioSpec (with the anomaly placed explicitly on --anomaly-node and
// --anomaly-core), the runner executes it exactly as a sweep would, and
// every output is published atomically through faultline/durable.
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
#include <sstream>
#include <string>
#include <vector>

#include "common/cancel.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/shutdown.hpp"
#include "common/units.hpp"
#include "faultline/durable.hpp"
#include "metrics/csv.hpp"
#include "runner/runner.hpp"
#include "sim/world.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"

namespace {

hpas::CliParser make_parser() {
  hpas::CliParser parser("hpas-sim",
                         "simulated-cluster scenario runner with CSV export");
  parser
      .add({.long_name = "preset", .short_name = 'p', .value_name = "NAME",
            .help = "cluster preset: " + hpas::runner::system_names(),
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

/// The flags as the one scenario run_scenario executes: the anomaly sits
/// where --anomaly-node/--anomaly-core put it, and an app spans node 0 and
/// the middle node for the whole --duration window.
hpas::runner::ScenarioSpec spec_from_flags(const hpas::ParsedArgs& args) {
  hpas::runner::ScenarioSpec spec;
  spec.system = args.value("preset");
  spec.app = args.value("app").empty() ? "none" : args.value("app");
  spec.anomaly =
      args.value("anomaly").empty() ? "none" : args.value("anomaly");
  spec.anomaly_node = static_cast<int>(hpas::flag_u64(args, "anomaly-node"));
  spec.anomaly_core = static_cast<int>(hpas::flag_u64(args, "anomaly-core"));
  spec.intensity = hpas::flag_double(args, "intensity");
  spec.duration_s = hpas::flag_duration_seconds(args, "duration");
  spec.sample_period_s = hpas::flag_duration_seconds(args, "sample-period");
  spec.ranks_per_node = static_cast<int>(hpas::flag_u64(args, "ranks"));
  if (!args.value("fail-at").empty()) {
    spec.injector_fail_at_s = hpas::flag_duration_seconds(args, "fail-at");
    if (spec.injector_fail_at_s <= 0.0)
      throw hpas::ConfigError("--fail-at must be positive");
    const int fail_tasks =
        static_cast<int>(hpas::flag_u64(args, "fail-tasks"));
    spec.injector_fail_tasks = fail_tasks == 0 ? -1 : fail_tasks;
  }
  return spec;
}

/// Every output takes the other verbs' durable path (tmp, fsync, rename,
/// directory fsync) in their fault domain.
void write_output(const std::string& path, const std::string& bytes) {
  hpas::faultline::write_file_atomic(hpas::faultline::Domain::kJournal, path,
                                     bytes);
}

int run(const hpas::ParsedArgs& args) {
  const hpas::runner::ScenarioSpec spec = spec_from_flags(args);
  const std::string trace_path = args.value("trace");
  const std::string check_path = args.value("check-trace");

  // First signal: cancel cooperatively at the next event boundary and
  // fall through to the normal export path with whatever was simulated.
  // Second signal: exit 130 right from the watcher thread. Subscribing
  // before the handlers go in means a signal is never caught with no one
  // to act on it.
  static hpas::CancelToken cancel;
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
  hpas::ShutdownController::instance().install();

  // Node 0's CSV is the result's metrics_csv; the other nodes' are taken
  // from the world before run_scenario tears it down, interrupted or not.
  std::vector<std::string> csvs(1);
  double stopped_at = 0.0;
  hpas::runner::RunOptions options;
  options.capture_trace = !trace_path.empty() || !check_path.empty();
  options.cancel = &cancel;
  options.store_samples = hpas::runner::StoredNodes::kAll;
  options.inspect = [&](hpas::sim::World& world) {
    stopped_at = world.now();
    for (int node = 1; node < world.num_nodes(); ++node) {
      std::ostringstream csv;
      hpas::metrics::write_csv(csv, world.node_store(node));
      csvs.push_back(csv.str());
    }
  };
  hpas::runner::ScenarioResult result =
      hpas::runner::run_scenario(spec, options);
  hpas::ShutdownController::instance().unsubscribe(subscription);
  csvs[0] = std::move(result.metrics_csv);
  const bool interrupted =
      result.status != hpas::runner::ScenarioStatus::kDone;

  const auto records = static_cast<unsigned long long>(result.trace_records);
  if (!trace_path.empty()) {
    write_output(trace_path, result.trace_bin);
    std::printf("hpas-sim: trace: %llu records -> %s\n", records,
                trace_path.c_str());
  }
  if (!check_path.empty() && interrupted) {
    std::fprintf(stderr,
                 "hpas-sim: replay check skipped: run was interrupted, "
                 "the truncated trace cannot be compared\n");
  } else if (!check_path.empty()) {
    std::istringstream fresh_bytes(result.trace_bin, std::ios::binary);
    const hpas::trace::TraceFile fresh =
        hpas::trace::read_binary(fresh_bytes);
    const hpas::trace::TraceFile recorded =
        hpas::trace::read_binary_file(check_path);
    const auto divergence = hpas::trace::diff_traces(recorded, fresh);
    if (divergence.diverged) {
      std::fprintf(stderr, "hpas-sim: replay check FAILED: %s\n",
                   divergence.description.c_str());
      return 3;
    }
    std::printf("hpas-sim: replay check passed (%llu records match %s)\n",
                records, check_path.c_str());
  }

  const std::string prefix = args.value("output");
  for (std::size_t node = 0; node < csvs.size(); ++node)
    write_output(prefix + ".node" + std::to_string(node) + ".csv", csvs[node]);
  std::printf("hpas-sim: %s for %s, %zu nodes -> %s.node*.csv\n",
              spec.app == "none" ? "idle" : spec.app.c_str(),
              hpas::format_seconds(spec.duration_s).c_str(), csvs.size(),
              prefix.c_str());
  if (interrupted)
    std::printf("hpas-sim: interrupted at t=%s (outputs cover the "
                "simulated prefix)\n",
                hpas::format_seconds(stopped_at).c_str());
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
