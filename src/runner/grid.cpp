#include "runner/grid.hpp"

#include <cstdio>
#include <cstdlib>

#include "anomalies/suite.hpp"
#include "apps/profiles.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "faultline/durable.hpp"

namespace hpas::runner {
namespace {

std::vector<std::string> string_axis(const Json& spec, const char* key,
                                     std::vector<std::string> fallback) {
  const Json* axis = spec.find(key);
  if (axis == nullptr) return fallback;
  std::vector<std::string> out;
  for (const Json& v : axis->as_array()) out.push_back(v.as_string());
  if (out.empty())
    throw ConfigError(std::string("grid: '") + key + "' must be non-empty");
  return out;
}

std::vector<double> number_axis(const Json& spec, const char* key,
                                std::vector<double> fallback) {
  const Json* axis = spec.find(key);
  if (axis == nullptr) return fallback;
  std::vector<double> out;
  for (const Json& v : axis->as_array()) out.push_back(v.as_number());
  if (out.empty())
    throw ConfigError(std::string("grid: '") + key + "' must be non-empty");
  return out;
}

/// Scenario names double as output file names; "x1.25" style intensity
/// suffixes keep them unique and shell-safe.
std::string scenario_name(std::size_t index, const ScenarioSpec& s,
                          int repeat) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "s%04zu_%s_%s_x%.2f_r%d", index,
                s.app.c_str(), s.anomaly.c_str(), s.intensity, repeat);
  return buf;
}

}  // namespace

std::uint64_t derive_scenario_seed(std::uint64_t base, std::uint64_t index) {
  // One golden-ratio step per index decorrelates adjacent counters before
  // the splitmix64 finalizer mixes the result.
  return SplitMix64(base ^ (index * 0x9e3779b97f4a7c15ULL)).next();
}

void validate_spec(const ScenarioSpec& spec) {
  if (spec.system != "voltrino" && spec.system != "chameleon" &&
      spec.system != "dragonfly1k")
    throw ConfigError("unknown system '" + spec.system +
                      "' (expected voltrino, chameleon or dragonfly1k)");
  if (!(spec.injector_fail_at_s >= 0.0))
    throw ConfigError("injector_fail_at_s must be non-negative");
  if (!(spec.duration_s > 0.0))
    throw ConfigError("duration_s must be positive");
  if (!(spec.sample_period_s > 0.0))
    throw ConfigError("sample_period_s must be positive");
  if (spec.app_nodes < 1 || spec.ranks_per_node < 1)
    throw ConfigError("app_nodes and ranks_per_node must be >= 1");
  if (spec.app != "none") apps::app_by_name(spec.app);  // throws on unknown
  // "os_jitter" is the simulated-only ninth generator (paper Sec. 3.1's
  // low-utilization cpuoccupy variant); its gap sequence consumes the
  // scenario's counter-based RNG stream.
  if (spec.anomaly != "none" && spec.anomaly != "os_jitter" &&
      !anomalies::is_known_anomaly(spec.anomaly))
    throw ConfigError("unknown anomaly '" + spec.anomaly + "'");
  if (!(spec.intensity > 0.0))
    throw ConfigError("intensity must be positive");
  const bool policy = spec.anomaly_node == -1 && spec.anomaly_core == -1;
  if (!policy && (spec.anomaly_node < 0 || spec.anomaly_core < 0))
    throw ConfigError(
        "anomaly_node and anomaly_core must both be -1 or both be >= 0");
}

SweepGrid expand_grid(const Json& spec) {
  if (!spec.is_object()) throw ConfigError("grid: document must be an object");

  SweepGrid grid;
  grid.name = spec.string_or("name", "sweep");
  grid.base_seed =
      static_cast<std::uint64_t>(spec.number_or("seed", 0x48504153));

  ScenarioSpec base;
  base.system = spec.string_or("system", "voltrino");
  base.duration_s = spec.number_or("duration_s", 60.0);
  base.sample_period_s = spec.number_or("sample_period_s", 1.0);
  base.app_nodes = static_cast<int>(spec.number_or("app_nodes", 2));
  base.ranks_per_node = static_cast<int>(spec.number_or("ranks_per_node", 4));
  base.run_to_completion = spec.bool_or("run_to_completion", false);
  base.injector_fail_at_s = spec.number_or("injector_fail_at_s", 0.0);
  base.injector_fail_tasks =
      static_cast<int>(spec.number_or("injector_fail_tasks", -1));

  std::vector<std::string> app_axis;
  for (const auto& app : apps::proxy_apps()) app_axis.push_back(app.name);
  app_axis = string_axis(spec, "apps", std::move(app_axis));
  const std::vector<std::string> anomaly_axis =
      string_axis(spec, "anomalies", {"none"});
  const std::vector<double> intensity_axis =
      number_axis(spec, "intensities", {1.0});
  const int repeats = static_cast<int>(spec.number_or("repeats", 1));
  if (repeats < 1) throw ConfigError("grid: repeats must be >= 1");

  // Fixed expansion order -- part of the reproducibility contract: the
  // scenario index (and with it the derived seed) is a function of the
  // grid text alone.
  std::uint64_t index = 0;
  for (const std::string& app : app_axis) {
    for (const std::string& anomaly : anomaly_axis) {
      for (const double intensity : intensity_axis) {
        for (int rep = 0; rep < repeats; ++rep) {
          ScenarioSpec s = base;
          s.app = app;
          s.anomaly = anomaly;
          s.intensity = intensity;
          try {
            validate_spec(s);
          } catch (const ConfigError& e) {
            throw ConfigError(std::string("grid: ") + e.what());
          }
          s.seed = derive_scenario_seed(grid.base_seed, index);
          s.name = scenario_name(index, s, rep);
          grid.scenarios.push_back(std::move(s));
          ++index;
        }
      }
    }
  }
  return grid;
}

SweepGrid load_grid_file(const std::string& path) {
  try {
    return expand_grid(faultline::load_json_file(path));
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

Json spec_to_json(const ScenarioSpec& spec) {
  Json doc = Json::object();
  doc.set("name", spec.name);
  doc.set("system", spec.system);
  doc.set("app", spec.app);
  doc.set("anomaly", spec.anomaly);
  doc.set("intensity", spec.intensity);
  doc.set("duration_s", spec.duration_s);
  doc.set("sample_period_s", spec.sample_period_s);
  doc.set("app_nodes", static_cast<double>(spec.app_nodes));
  doc.set("ranks_per_node", static_cast<double>(spec.ranks_per_node));
  doc.set("run_to_completion", spec.run_to_completion);
  doc.set("injector_fail_at_s", spec.injector_fail_at_s);
  doc.set("injector_fail_tasks",
          static_cast<double>(spec.injector_fail_tasks));
  // 64-bit seeds do not round-trip through JSON doubles; keep exact.
  doc.set("seed", std::to_string(spec.seed));
  return doc;
}

ScenarioSpec spec_from_json(const Json& doc) {
  if (!doc.is_object())
    throw ConfigError("scenario spec must be a JSON object");
  ScenarioSpec spec;
  spec.name = doc.string_or("name", spec.name);
  spec.system = doc.string_or("system", spec.system);
  spec.app = doc.string_or("app", spec.app);
  spec.anomaly = doc.string_or("anomaly", spec.anomaly);
  spec.intensity = doc.number_or("intensity", spec.intensity);
  spec.duration_s = doc.number_or("duration_s", spec.duration_s);
  spec.sample_period_s =
      doc.number_or("sample_period_s", spec.sample_period_s);
  spec.app_nodes = static_cast<int>(
      doc.number_or("app_nodes", static_cast<double>(spec.app_nodes)));
  spec.ranks_per_node = static_cast<int>(doc.number_or(
      "ranks_per_node", static_cast<double>(spec.ranks_per_node)));
  spec.run_to_completion =
      doc.bool_or("run_to_completion", spec.run_to_completion);
  spec.injector_fail_at_s =
      doc.number_or("injector_fail_at_s", spec.injector_fail_at_s);
  spec.injector_fail_tasks = static_cast<int>(doc.number_or(
      "injector_fail_tasks", static_cast<double>(spec.injector_fail_tasks)));
  spec.seed = std::strtoull(doc.string_or("seed", "0").c_str(), nullptr, 10);
  validate_spec(spec);
  return spec;
}

}  // namespace hpas::runner
