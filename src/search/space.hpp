// Typed scenario-space abstraction for guided anomaly search.
//
// A ScenarioSpace lifts the grid's axes into bounded, typed dimensions --
// continuous, integer, categorical -- over the fields of a ScenarioSpec.
// Where a grid enumerates the cartesian product up front, a space is a
// *generator*: search strategies draw points from it (sample), perturb
// them (mutate / mutate_dimension) and recombine them (crossover), all
// through explicitly seeded Rng streams so a search trajectory is a pure
// function of (space text, seed).
//
// Canonical-point contract: integer and categorical coordinates are stored
// as exact integral doubles (the index for categoricals), and every
// operation returns canonical in-bounds points. Categorical dimensions are
// never interpolated -- mutation jumps to a different category, crossover
// copies a parent's category verbatim.
//
// The point's identity is its hash: materialize() derives the scenario
// name ("e" + 16 hex digits of point_hash) and the counter-based RNG seed
// from it, so the same point always becomes the same ScenarioSpec no
// matter when or where the search proposes it. That is what turns the
// crash-safe journal into an exact evaluation cache (see driver.hpp).
//
// Space file (JSON) -- base scalars like a grid, plus "dimensions":
//   {
//     "name": "fig08_search",
//     "system": "voltrino",
//     "seed": 42,
//     "duration_s": 20.0,
//     "sample_period_s": 1.0,
//     "dimensions": [
//       {"name": "app", "type": "categorical", "values": ["CoMD", "milc"]},
//       {"name": "anomaly", "type": "categorical",
//        "values": ["cpuoccupy", "cachecopy", "membw"]},
//       {"name": "intensity", "type": "continuous", "lo": 0.25, "hi": 2.0},
//       {"name": "ranks_per_node", "type": "integer", "lo": 1, "hi": 4}
//     ]
//   }
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "runner/grid.hpp"

namespace hpas::dataset {
struct DatasetPlan;
}

namespace hpas::search {

enum class DimKind : int { kContinuous = 0, kInteger = 1, kCategorical = 2 };

/// The ScenarioSpec member a dimension assigns (a kSpecFields row's). Its
/// type decides the kinds it admits: a string member is categorical, an
/// int member integer, a double member continuous or integer.
using SpecMember = std::variant<std::string runner::ScenarioSpec::*,
                                double runner::ScenarioSpec::*,
                                int runner::ScenarioSpec::*>;

/// One bounded dimension bound to a ScenarioSpec field by name.
struct Dimension {
  std::string field;  ///< a kSpecFields name: "app", "intensity", ...
  SpecMember member;  ///< that row's member
  DimKind kind = DimKind::kContinuous;
  double lo = 0.0;  ///< numeric kinds: inclusive bounds
  double hi = 0.0;
  std::vector<std::string> values;  ///< categorical kinds: the categories
};

/// A position in the space: one coordinate per dimension, in declaration
/// order. Canonical form (enforced by every ScenarioSpace operation):
/// integer/categorical coordinates are exact integral doubles.
struct Point {
  std::vector<double> coords;

  bool operator==(const Point& other) const { return coords == other.coords; }
};

class ScenarioSpace {
 public:
  /// Parses and validates a space document. Throws ConfigError on unknown
  /// or flag fields, kind/field mismatches (e.g. a continuous "app"),
  /// inverted bounds, duplicate dimensions, or a base -- alone, with any
  /// category or numeric lower bound, or at the longest window over the
  /// shortest period -- that fails runner::validate_spec().
  static ScenarioSpace from_json(const Json& spec);

  /// Reads and parses a space file; SystemError when unreadable.
  static ScenarioSpace load_file(const std::string& path);

  const std::string& name() const { return name_; }
  std::uint64_t base_seed() const { return base_seed_; }
  /// Overrides the space file's seed (the CLI's --seed). The base seed
  /// drives strategy streams AND materialized scenario seeds, so changing
  /// it re-randomizes the whole search coherently.
  void set_base_seed(std::uint64_t seed) { base_seed_ = seed; }
  const runner::ScenarioSpec& base() const { return base_; }
  const std::vector<Dimension>& dimensions() const { return dims_; }
  std::size_t size() const { return dims_.size(); }

  /// Uniform sample: continuous ~ U[lo, hi); integer ~ U{lo..hi};
  /// categorical ~ uniform category index.
  Point sample(Rng& rng) const;

  /// Mutates exactly one uniformly chosen dimension (see
  /// mutate_dimension). The result differs from `p` whenever the chosen
  /// dimension has more than one admissible value.
  Point mutate(const Point& p, Rng& rng, double scale = 0.2) const;

  /// Mutates dimension `dim` only: continuous coordinates take a clamped
  /// gaussian step of stddev scale*(hi-lo); integer coordinates take a
  /// rounded gaussian step of at least one; categorical coordinates jump
  /// to a uniformly chosen *different* category (never an interpolation).
  Point mutate_dimension(const Point& p, std::size_t dim, Rng& rng,
                         double scale = 0.2) const;

  /// Uniform crossover: each coordinate is copied verbatim from parent a
  /// or parent b with equal probability.
  Point crossover(const Point& a, const Point& b, Rng& rng) const;

  /// True when `p` has one canonical coordinate per dimension, inside the
  /// declared bounds.
  bool in_bounds(const Point& p) const;

  /// Clamps and canonicalizes a point (rounds integer/categorical
  /// coordinates, clips numeric ones into [lo, hi]).
  Point clamp(Point p) const;

  /// Stable 64-bit digest of the point's canonical coordinates. Equal
  /// points hash equal on every platform; the hash is the point's identity
  /// for journal caching and scenario naming.
  std::uint64_t point_hash(const Point& p) const;

  /// Binds the point onto the base spec: name = "e" + 16 hex digits of
  /// point_hash(p), seed = derive_scenario_seed(base_seed, point_hash(p)).
  runner::ScenarioSpec materialize(const Point& p) const;

  /// {"app": "CoMD", "intensity": 0.5, ...} -- dimension values by field
  /// name, for human-readable frontier entries.
  Json point_json(const Point& p) const;

 private:
  std::string name_ = "search";
  std::uint64_t base_seed_ = 0x48504153;  // "HPAS"
  runner::ScenarioSpec base_;
  std::vector<Dimension> dims_;
};

/// A dataset plan (dataset/factory.hpp) of `rows` i.i.d. samples from
/// `space`, drawn with one serial Rng stream seeded by the space's base
/// seed and materialized point by point.
dataset::DatasetPlan plan_from_space(const ScenarioSpace& space,
                                     std::uint64_t rows, double warmup_s,
                                     double noise, bool include_bandwidth);

}  // namespace hpas::search
