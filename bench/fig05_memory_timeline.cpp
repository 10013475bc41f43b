// Figure 5: node memory usage over time under memleak vs. memeater.
//
// Paper shape: memeater steps up to its plateau early and stays flat;
// memleak grows monotonically for its whole lifetime; both release their
// memory when the anomaly terminates.
//
// Both scenarios run under a structured TraceCapture; each is run twice
// and the trace streams must agree bit for bit (the replay guarantee,
// checked here on a real figure workload, not just unit fixtures). Set
// HPAS_TRACE_OUT=<prefix> to dump <prefix>.memleak.bin /
// <prefix>.memeater.bin for trace_diff.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "metrics/store.hpp"
#include "sim/cluster.hpp"
#include "simanom/injectors.hpp"
#include "trace/export.hpp"
#include "trace/replay.hpp"
#include "trace/tracer.hpp"

namespace {

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

std::vector<double> memory_used_timeline(const char* anomaly,
                                         double horizon_s,
                                         hpas::trace::TraceFile* trace_out) {
  auto world = hpas::sim::make_voltrino_world();
  hpas::trace::TraceCapture capture;
  world->attach_tracer(&capture.tracer());
  world->enable_monitoring(1.0);
  if (std::string(anomaly) == "memleak") {
    // 20 MB leaked per second (paper default chunk), running for 400 s.
    hpas::simanom::inject_memleak(*world, 0, 0, 20.0 * 1024 * 1024, 1.0,
                                  400.0);
  } else {
    // 35 MB growth steps (paper default) to a 2.5 GiB plateau.
    hpas::simanom::inject_memeater(*world, 0, 0, 35.0 * 1024 * 1024,
                                   2.5 * kGiB, 1.0, 400.0);
  }
  world->run_until(horizon_s);
  if (trace_out != nullptr) *trace_out = capture.take();

  const auto& series = world->node_store(0).series({"Memfree", "meminfo"});
  const double total =
      world->node(0).config().memory_bytes / 1024.0;  // kB, like meminfo
  std::vector<double> used_gb;
  for (std::size_t i = 0; i < series.size(); ++i) {
    used_gb.push_back((total - series.value_at(i)) * 1024.0 / kGiB);
  }
  return used_gb;
}

/// Re-runs `anomaly` and diffs the fresh trace against `recorded`;
/// returns true when they agree bit for bit.
bool replay_checks(const char* anomaly, double horizon_s,
                   const hpas::trace::TraceFile& recorded) {
  hpas::trace::TraceFile fresh;
  memory_used_timeline(anomaly, horizon_s, &fresh);
  const auto divergence = hpas::trace::diff_traces(recorded, fresh);
  if (divergence.diverged)
    std::fprintf(stderr, "fig05: %s replay diverged: %s\n", anomaly,
                 divergence.description.c_str());
  return !divergence.diverged;
}

}  // namespace

int main() {
  std::printf(
      "== Figure 5: memory usage over time (memleak vs. memeater) ==\n"
      "paper shape: memeater plateaus early; memleak grows monotonically;\n"
      "both release at termination (400s)\n\n");
  constexpr double kHorizon = 500.0;
  hpas::trace::TraceFile leak_trace;
  hpas::trace::TraceFile eater_trace;
  const auto leak = memory_used_timeline("memleak", kHorizon, &leak_trace);
  const auto eater = memory_used_timeline("memeater", kHorizon, &eater_trace);

  std::printf("%8s %16s %16s\n", "time(s)", "memleak used(GB)",
              "memeater used(GB)");
  for (std::size_t t = 0; t < leak.size() && t < eater.size(); t += 25) {
    std::printf("%8zu %16.2f %16.2f\n", t, leak[t], eater[t]);
  }

  // Shape: memleak grows monotonically through its lifetime; memeater is
  // flat on its plateau; both return to the OS baseline after t=400.
  bool shape_ok = true;
  for (std::size_t t = 25; t < 390; t += 25)
    shape_ok = shape_ok && leak[t] > leak[t - 25];
  shape_ok = shape_ok && std::abs(eater[350] - eater[150]) < 0.01;
  shape_ok = shape_ok && eater[150] > eater[0] + 1.0;  // plateau is real
  shape_ok = shape_ok && std::abs(leak[450] - leak[0]) < 0.01 &&
             std::abs(eater[450] - eater[0]) < 0.01;

  // The replay guarantee on a figure workload: a second run of each
  // scenario reproduces its trace bit for bit.
  const bool replay_ok = replay_checks("memleak", kHorizon, leak_trace) &&
                         replay_checks("memeater", kHorizon, eater_trace);
  std::printf("\ntrace: memleak %zu records, memeater %zu records, "
              "replay %s\n",
              leak_trace.records.size(), eater_trace.records.size(),
              replay_ok ? "bit-identical" : "DIVERGED");

  if (const char* prefix = std::getenv("HPAS_TRACE_OUT")) {
    const std::string leak_path = std::string(prefix) + ".memleak.bin";
    const std::string eater_path = std::string(prefix) + ".memeater.bin";
    hpas::trace::write_binary_file(leak_path, leak_trace);
    hpas::trace::write_binary_file(eater_path, eater_trace);
    std::printf("trace: wrote %s and %s\n", leak_path.c_str(),
                eater_path.c_str());
  }

  std::printf(
      "BENCH_JSON {\"bench\":\"fig05_memory_timeline\","
      "\"memleak_trace_records\":%zu,\"memeater_trace_records\":%zu,"
      "\"replay_identical\":%s}\n",
      leak_trace.records.size(), eater_trace.records.size(),
      replay_ok ? "true" : "false");
  std::printf("shape check: %s\n", shape_ok && replay_ok ? "OK" : "FAILED");
  return shape_ok && replay_ok ? 0 : 1;
}
