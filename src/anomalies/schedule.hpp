// Composite anomaly schedules (paper Sec. 3: "This configurability also
// enables composing more complicated variability patterns by using
// multiple anomaly instances").
//
// A schedule is a small text format, one anomaly instance per line:
//
//     # comment
//     at 0s   cpuoccupy -u 80 -d 30s
//     at 10s  memleak -s 20M -r 1s -d 45s
//     at 15s  cachecopy -c L2 -d 20s
//
// `run_schedule` launches every instance on its own thread at its start
// offset and waits for all of them; a stop request tears the whole
// composition down. This is what `hpas schedule <file>` runs.
#pragma once

#include <atomic>
#include <iosfwd>
#include <string>
#include <vector>

#include "anomalies/anomaly.hpp"

namespace hpas::anomalies {

struct ScheduleEntry {
  double start_s = 0.0;           ///< offset from schedule launch
  std::string anomaly;            ///< one of the eight suite names
  std::vector<std::string> args;  ///< CLI args for that anomaly
};

struct Schedule {
  std::vector<ScheduleEntry> entries;

  /// Total wall time the schedule needs: max over entries of
  /// start + start-delay + duration (parsed from each entry's args).
  double span_seconds() const;
};

/// Parses the schedule text format. Throws ConfigError with the line
/// number on malformed input (unknown anomaly, bad time, missing "at").
Schedule parse_schedule(std::istream& in);
Schedule load_schedule_file(const std::string& path);

/// Per-entry outcome of a composite run.
struct ScheduleEntryResult {
  ScheduleEntry entry;
  RunStats stats;
  std::string error;  ///< non-empty if the instance failed
  SupervisionReport supervision;  ///< worker failures / recoveries
};

/// Runs all entries concurrently, honouring their start offsets.
/// `stop` (optional) requests early teardown of every running instance.
/// Blocks until every instance has finished.
std::vector<ScheduleEntryResult> run_schedule(
    const Schedule& schedule, const std::atomic<bool>* stop = nullptr);

}  // namespace hpas::anomalies
