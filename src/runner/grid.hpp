// Declarative scenario grids for the experiment runner.
//
// A grid file (JSON) names axes -- applications, anomalies, intensities,
// repeats -- plus the grid's name, its base seed and any kSpecFields
// scalar shared by every scenario (system preset, duration, sampling
// period, ...). expand_grid() takes the cartesian product in a
// fixed order (app x anomaly x intensity x repeat) and assigns every
// scenario a counter-based RNG seed derived from (base_seed, index), so
// scenario i's random stream is a pure function of the grid text: it does
// not depend on which worker thread runs it, or on whether scenarios
// before it ran at all.
//
// Example (bench/fig08 as a grid):
//   {
//     "name": "fig08",
//     "system": "voltrino",
//     "seed": 42,
//     "apps": ["CoMD", "MILC"],
//     "anomalies": ["none", "cpuoccupy", "cachecopy"],
//     "intensities": [1.0],
//     "repeats": 1,
//     "duration_s": 1000000,
//     "sample_period_s": 1.0,
//     "run_to_completion": true
//   }
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/json.hpp"

namespace hpas::runner {

/// One fully-resolved experiment: everything run_scenario() needs.
struct ScenarioSpec {
  std::string name;                ///< unique, filesystem-safe
  std::string system = "voltrino"; ///< a system_preset() name (runner.hpp)
  std::string app = "none";        ///< proxy app name, or "none"
  std::string anomaly = "none";    ///< one of the nine, or "none"
  double intensity = 1.0;
  double duration_s = 60.0;        ///< anomaly/monitoring window length
  double sample_period_s = 1.0;    ///< LDMS-like collection period
  int app_nodes = 2;               ///< nodes the app spans
  int ranks_per_node = 4;
  /// true: run the app to completion (fig08 semantics; duration_s bounds
  /// the anomaly). false: observe a fixed monitoring window of
  /// duration_s simulated seconds (diagnosis semantics).
  bool run_to_completion = false;
  /// Degraded-injector modelling (mirrors the native --on-error story):
  /// at this simulated time the injector loses `injector_fail_tasks` of
  /// its tasks (-1 = all), each emitting a kInjectorFailure trace record.
  /// 0 disables the failure (the default -- and the byte-stable baseline).
  double injector_fail_at_s = 0.0;
  int injector_fail_tasks = -1;
  std::uint64_t seed = 0;          ///< per-scenario counter-derived stream
  /// Explicit anomaly placement (hpas-sim's --anomaly-node/-core): inject
  /// on this node and core instead of the runner's placement policy. -1
  /// (both) selects the policy. Never part of a grid, the JSON round-trip
  /// or scenario_key_hash, so no journaled or wire spec carries it.
  int anomaly_node = -1;
  int anomaly_core = -1;
};

/// One configured ScenarioSpec field: its JSON name, its member (whose
/// type is the field's kind: std::string categorical, double continuous,
/// int integer, bool flag) and, for numeric kinds, validate_spec()'s
/// lower bound: values must exceed `lo` if `above`, else reach it.
template <typename T>
struct SpecField {
  std::string_view name;
  T ScenarioSpec::*member;
  double lo = 0.0;
  bool above = false;
};

/// The configured fields in scenario_key_hash (and spec_to_json) order.
/// Every consumer handles the derived `name` before the rows and `seed`
/// after them; the placement fields are neither keyed nor on the wire.
inline constexpr std::tuple kSpecFields{
    SpecField{"system", &ScenarioSpec::system},
    SpecField{"app", &ScenarioSpec::app},
    SpecField{"anomaly", &ScenarioSpec::anomaly},
    SpecField{"intensity", &ScenarioSpec::intensity, 0.0, true},
    SpecField{"duration_s", &ScenarioSpec::duration_s, 0.0, true},
    SpecField{"sample_period_s", &ScenarioSpec::sample_period_s, 0.0, true},
    SpecField{"app_nodes", &ScenarioSpec::app_nodes, 1.0},
    SpecField{"ranks_per_node", &ScenarioSpec::ranks_per_node, 1.0},
    SpecField{"run_to_completion", &ScenarioSpec::run_to_completion},
    SpecField{"injector_fail_at_s", &ScenarioSpec::injector_fail_at_s, 0.0},
    SpecField{"injector_fail_tasks", &ScenarioSpec::injector_fail_tasks, -1.0},
};

/// Calls f(row) for each kSpecFields row in order, unrolled at compile time.
template <typename F>
constexpr void for_each_spec_field(F&& f) {
  std::apply([&f](const auto&... row) { (f(row), ...); }, kSpecFields);
}

/// validate_spec() rejects duration_s / sample_period_s above this
/// (inclusive) cap; one monitored window of 1e6 samples peaks near 0.5 GB.
/// Under run_to_completion the sample count is the app's elapsed time over
/// the period, so the cap bounds only the window.
inline constexpr double kMaxSamplesPerSpec = 1'000'000;

/// Overwrites each kSpecFields field the object `doc` names; ConfigError
/// when a member has the wrong type.
void read_spec_fields(const Json& doc, ScenarioSpec& spec);

struct SweepGrid {
  std::string name = "sweep";
  std::uint64_t base_seed = 0x48504153;  // "HPAS"
  std::vector<ScenarioSpec> scenarios;
};

/// Counter-based per-scenario seed: a splitmix64 hash of (base, index).
/// Any (base, index) pair maps to an independent stream; no sequential
/// state is consumed, which is what keeps parallel expansion exact.
std::uint64_t derive_scenario_seed(std::uint64_t base, std::uint64_t index);

/// Throws ConfigError unless run_scenario() can execute `spec`: a known
/// system, app and anomaly, every numeric field within its row's bound,
/// at most kMaxSamplesPerSpec samples, and placement fields that are both
/// -1 or both >= 0.
void validate_spec(const ScenarioSpec& spec);

/// Expands a grid document into the full scenario list. Validates every
/// scenario (validate_spec) plus the grid's own shape (empty axes,
/// repeats < 1) and throws ConfigError, prefixed "grid: ", with the
/// offending value on error.
SweepGrid expand_grid(const Json& spec);

/// Reads and expands a grid file; throws SystemError when unreadable and
/// ConfigError when invalid.
SweepGrid load_grid_file(const std::string& path);

/// ScenarioSpec <-> JSON round-trip, shared by the search frontier files
/// and the experiment server's wire protocol: `name`, every kSpecFields
/// row, then the 64-bit `seed` as a decimal string (JSON doubles cannot
/// hold it). spec_from_json() applies the struct's defaults for absent
/// members and throws ConfigError when the document is not an object, a
/// member has the wrong type, or the spec fails validate_spec().
Json spec_to_json(const ScenarioSpec& spec);
ScenarioSpec spec_from_json(const Json& doc);

}  // namespace hpas::runner
