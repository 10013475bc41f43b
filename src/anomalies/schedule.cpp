#include "anomalies/schedule.hpp"

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "anomalies/suite.hpp"
#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "common/units.hpp"

namespace hpas::anomalies {
namespace {

/// Duration/start-delay of one entry as its generator will see them.
std::pair<double, double> entry_timing(const ScheduleEntry& entry) {
  const auto parser = make_anomaly_parser(entry.anomaly);
  const auto args = parser.parse(entry.args);
  return {parse_duration_seconds(args.value("duration")),
          parse_duration_seconds(args.value("start-delay"))};
}

}  // namespace

double Schedule::span_seconds() const {
  double span = 0.0;
  for (const auto& entry : entries) {
    const auto [duration, delay] = entry_timing(entry);
    span = std::max(span, entry.start_s + delay + duration);
  }
  return span;
}

Schedule parse_schedule(std::istream& in) {
  Schedule schedule;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line.erase(hash);
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword)) continue;  // blank

    const std::string where = "schedule line " + std::to_string(line_no);
    if (keyword != "at")
      throw ConfigError(where + ": expected 'at <time> <anomaly> [args]', got '" +
                        keyword + "'");
    std::string time_text, anomaly;
    if (!(ls >> time_text >> anomaly))
      throw ConfigError(where + ": expected 'at <time> <anomaly> [args]'");

    ScheduleEntry entry;
    try {
      entry.start_s = parse_duration_seconds(time_text);
    } catch (const ConfigError& e) {
      throw ConfigError(where + ": " + e.what());
    }
    if (!is_known_anomaly(anomaly))
      throw ConfigError(where + ": unknown anomaly '" + anomaly + "'");
    entry.anomaly = anomaly;
    std::string arg;
    while (ls >> arg) entry.args.push_back(arg);

    // Validate the args eagerly so errors carry the line number.
    try {
      const auto parser = make_anomaly_parser(anomaly);
      (void)make_anomaly(anomaly, parser.parse(entry.args));
    } catch (const ConfigError& e) {
      throw ConfigError(where + ": " + e.what());
    }
    schedule.entries.push_back(std::move(entry));
  }
  return schedule;
}

Schedule load_schedule_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SystemError("cannot open schedule file: " + path);
  return parse_schedule(in);
}

std::vector<ScheduleEntryResult> run_schedule(const Schedule& schedule,
                                              const std::atomic<bool>* stop) {
  std::vector<ScheduleEntryResult> results(schedule.entries.size());
  std::vector<std::unique_ptr<Anomaly>> instances;
  instances.reserve(schedule.entries.size());

  // Construct everything up front so configuration errors surface before
  // any load is generated. The start offset is realized through the
  // generator's own start-delay machinery.
  for (const auto& entry : schedule.entries) {
    const auto parser = make_anomaly_parser(entry.anomaly);
    auto args = parser.parse(entry.args);
    auto anomaly = make_anomaly(entry.anomaly, args);
    // make_anomaly has no way to add the schedule offset, so rebuild the
    // arg list with the combined delay.
    const double delay =
        parse_duration_seconds(args.value("start-delay")) + entry.start_s;
    std::vector<std::string> adjusted = entry.args;
    adjusted.push_back("--start-delay");
    adjusted.push_back(std::to_string(delay) + "s");
    anomaly = make_anomaly(entry.anomaly, parser.parse(adjusted));
    instances.push_back(std::move(anomaly));
  }

  std::vector<std::thread> workers;
  workers.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    workers.emplace_back([&, i] {
      results[i].entry = schedule.entries[i];
      try {
        results[i].stats = instances[i]->run();
      } catch (const std::exception& e) {
        results[i].error = e.what();
      }
      results[i].supervision = instances[i]->supervision_report();
    });
  }

  // Propagate external stop requests to every instance.
  std::thread watchdog;
  std::atomic<bool> done{false};
  if (stop != nullptr) {
    watchdog = std::thread([&] {
      while (!done.load(std::memory_order_relaxed)) {
        if (stop->load(std::memory_order_relaxed)) {
          for (const auto& instance : instances) instance->request_stop();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  for (auto& worker : workers) worker.join();
  done.store(true);
  if (watchdog.joinable()) watchdog.join();
  return results;
}

}  // namespace hpas::anomalies
