#include "runner/grid.hpp"

#include <cstdio>
#include <cstdlib>
#include <type_traits>

#include "anomalies/suite.hpp"
#include "apps/profiles.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "faultline/durable.hpp"
#include "runner/runner.hpp"

namespace hpas::runner {
namespace {

template <typename T>
std::vector<T> axis(const Json& spec, const char* key,
                    std::vector<T> fallback) {
  const Json* axis = spec.find(key);
  if (axis == nullptr) return fallback;
  std::vector<T> out;
  for (const Json& v : axis->as_array()) {
    if constexpr (std::is_same_v<T, std::string>)
      out.push_back(v.as_string());
    else
      out.push_back(v.as_number());
  }
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

void read_spec_fields(const Json& doc, ScenarioSpec& spec) {
  for_each_spec_field([&](const auto& row) {
    auto& v = spec.*row.member;
    using T = std::remove_cvref_t<decltype(v)>;
    if constexpr (std::is_same_v<T, std::string>)
      v = doc.string_or(row.name, v);
    else if constexpr (std::is_same_v<T, bool>)
      v = doc.bool_or(row.name, v);
    else
      v = static_cast<T>(doc.number_or(row.name, v));
  });
}

void validate_spec(const ScenarioSpec& spec) {
  system_preset(spec.system);                           // throws on unknown
  if (spec.app != "none") apps::app_by_name(spec.app);  // throws on unknown
  // "os_jitter" is the simulated-only ninth generator (paper Sec. 3.1's
  // low-utilization cpuoccupy variant); its gap sequence consumes the
  // scenario's counter-based RNG stream.
  if (spec.anomaly != "none" && spec.anomaly != "os_jitter" &&
      !anomalies::is_known_anomaly(spec.anomaly))
    throw ConfigError("unknown anomaly '" + spec.anomaly + "'");
  for_each_spec_field([&spec](const auto& row) {
    using T = std::remove_cvref_t<decltype(spec.*row.member)>;
    if constexpr (std::is_same_v<T, double> || std::is_same_v<T, int>) {
      const double v = spec.*row.member;
      if (row.above ? !(v > row.lo) : !(v >= row.lo))
        throw ConfigError(std::string(row.name) +
                          (row.above ? " must be > " : " must be >= ") +
                          json_number_to_string(row.lo));
    }
  });
  const double samples = spec.duration_s / spec.sample_period_s;
  if (samples > kMaxSamplesPerSpec)
    throw ConfigError("duration_s / sample_period_s = " +
                      json_number_to_string(samples) + " exceeds the cap of " +
                      json_number_to_string(kMaxSamplesPerSpec) +
                      " samples per spec");
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

  // Scalar app/anomaly/intensity members are type-checked, then overridden.
  ScenarioSpec base;
  read_spec_fields(spec, base);

  std::vector<std::string> app_axis;
  for (const auto& app : apps::proxy_apps()) app_axis.push_back(app.name);
  app_axis = axis(spec, "apps", std::move(app_axis));
  const auto anomaly_axis = axis<std::string>(spec, "anomalies", {"none"});
  const auto intensity_axis = axis<double>(spec, "intensities", {1.0});
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
  for_each_spec_field([&](const auto& row) {
    doc.set(std::string(row.name), spec.*row.member);
  });
  // 64-bit seeds do not round-trip through JSON doubles; keep exact.
  doc.set("seed", std::to_string(spec.seed));
  return doc;
}

ScenarioSpec spec_from_json(const Json& doc) {
  if (!doc.is_object())
    throw ConfigError("scenario spec must be a JSON object");
  ScenarioSpec spec;
  spec.name = doc.string_or("name", spec.name);
  read_spec_fields(doc, spec);
  spec.seed = std::strtoull(doc.string_or("seed", "0").c_str(), nullptr, 10);
  validate_spec(spec);
  return spec;
}

}  // namespace hpas::runner
