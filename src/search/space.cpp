#include "search/space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "anomalies/suite.hpp"
#include "apps/profiles.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "dataset/factory.hpp"
#include "faultline/durable.hpp"

namespace hpas::search {
namespace {

/// The ScenarioSpec fields a dimension may bind, with the kinds each
/// admits. Categorical fields are the string-valued ones; numeric fields
/// split into inherently integral counts and continuous scalars.
enum class FieldClass { kString, kContinuous, kInteger };

struct FieldInfo {
  const char* name;
  FieldClass cls;
  double domain_lo;  ///< numeric fields: smallest admissible value
};

constexpr FieldInfo kFields[] = {
    {"app", FieldClass::kString, 0.0},
    {"anomaly", FieldClass::kString, 0.0},
    {"system", FieldClass::kString, 0.0},
    {"intensity", FieldClass::kContinuous, 1e-6},
    {"duration_s", FieldClass::kContinuous, 1e-6},
    {"sample_period_s", FieldClass::kContinuous, 1e-6},
    {"injector_fail_at_s", FieldClass::kContinuous, 0.0},
    {"app_nodes", FieldClass::kInteger, 1.0},
    {"ranks_per_node", FieldClass::kInteger, 1.0},
    {"injector_fail_tasks", FieldClass::kInteger, -1.0},
};

const FieldInfo* field_info(const std::string& name) {
  for (const FieldInfo& f : kFields)
    if (name == f.name) return &f;
  return nullptr;
}

void validate_category(const std::string& field, const std::string& value) {
  if (field == "app") {
    if (value != "none") apps::app_by_name(value);  // throws on unknown
    return;
  }
  if (field == "anomaly") {
    // "os_jitter" is the simulated-only ninth generator (see grid.cpp).
    if (value != "none" && value != "os_jitter" &&
        !anomalies::is_known_anomaly(value))
      throw ConfigError("space: unknown anomaly '" + value + "'");
    return;
  }
  if (field == "system") {
    if (value != "voltrino" && value != "chameleon" && value != "dragonfly1k")
      throw ConfigError("space: unknown system '" + value + "'");
    return;
  }
  throw ConfigError("space: field '" + field + "' is not categorical");
}

double canonical_coord(const Dimension& d, double v) {
  if (d.kind == DimKind::kContinuous) return std::clamp(v, d.lo, d.hi);
  if (d.kind == DimKind::kInteger)
    return std::clamp(std::round(v), d.lo, d.hi);
  const double last = static_cast<double>(d.values.size()) - 1.0;
  return std::clamp(std::round(v), 0.0, last);
}

}  // namespace

ScenarioSpace ScenarioSpace::from_json(const Json& spec) {
  if (!spec.is_object())
    throw ConfigError("space: document must be an object");

  ScenarioSpace space;
  space.name_ = spec.string_or("name", "search");
  space.base_seed_ =
      static_cast<std::uint64_t>(spec.number_or("seed", 0x48504153));

  runner::ScenarioSpec& base = space.base_;
  base.system = spec.string_or("system", "voltrino");
  validate_category("system", base.system);
  base.app = spec.string_or("app", "none");
  if (base.app != "none") apps::app_by_name(base.app);
  base.anomaly = spec.string_or("anomaly", "none");
  validate_category("anomaly", base.anomaly);
  base.intensity = spec.number_or("intensity", 1.0);
  base.duration_s = spec.number_or("duration_s", 60.0);
  base.sample_period_s = spec.number_or("sample_period_s", 1.0);
  base.app_nodes = static_cast<int>(spec.number_or("app_nodes", 2));
  base.ranks_per_node =
      static_cast<int>(spec.number_or("ranks_per_node", 4));
  base.run_to_completion = spec.bool_or("run_to_completion", false);
  base.injector_fail_at_s = spec.number_or("injector_fail_at_s", 0.0);
  base.injector_fail_tasks =
      static_cast<int>(spec.number_or("injector_fail_tasks", -1));
  if (base.duration_s <= 0.0 || base.sample_period_s <= 0.0)
    throw ConfigError("space: duration_s and sample_period_s must be positive");
  if (base.intensity <= 0.0)
    throw ConfigError("space: intensity must be positive");
  if (base.app_nodes < 1 || base.ranks_per_node < 1)
    throw ConfigError("space: app_nodes and ranks_per_node must be >= 1");
  if (base.injector_fail_at_s < 0.0)
    throw ConfigError("space: injector_fail_at_s must be non-negative");

  const Json* dims = spec.find("dimensions");
  if (dims == nullptr || !dims->is_array() || dims->as_array().empty())
    throw ConfigError("space: 'dimensions' must be a non-empty array");

  for (const Json& d : dims->as_array()) {
    if (!d.is_object())
      throw ConfigError("space: each dimension must be an object");
    Dimension dim;
    const Json* field = d.find("name");
    if (field == nullptr)
      throw ConfigError("space: dimension is missing 'name'");
    dim.field = field->as_string();
    const FieldInfo* info = field_info(dim.field);
    if (info == nullptr)
      throw ConfigError("space: unknown dimension field '" + dim.field + "'");
    for (const Dimension& existing : space.dims_) {
      if (existing.field == dim.field)
        throw ConfigError("space: duplicate dimension '" + dim.field + "'");
    }

    const std::string type = d.string_or("type", "");
    if (type == "continuous") {
      dim.kind = DimKind::kContinuous;
    } else if (type == "integer") {
      dim.kind = DimKind::kInteger;
    } else if (type == "categorical") {
      dim.kind = DimKind::kCategorical;
    } else {
      throw ConfigError("space: dimension '" + dim.field +
                        "' has unknown type '" + type +
                        "' (expected continuous, integer or categorical)");
    }

    if (dim.kind == DimKind::kCategorical) {
      if (info->cls != FieldClass::kString)
        throw ConfigError("space: field '" + dim.field +
                          "' is numeric; it cannot be categorical");
      const Json* values = d.find("values");
      if (values == nullptr || !values->is_array() ||
          values->as_array().empty())
        throw ConfigError("space: categorical dimension '" + dim.field +
                          "' needs a non-empty 'values' array");
      for (const Json& v : values->as_array()) {
        validate_category(dim.field, v.as_string());
        dim.values.push_back(v.as_string());
      }
    } else {
      if (info->cls == FieldClass::kString)
        throw ConfigError("space: field '" + dim.field +
                          "' is categorical; give it 'values', not bounds");
      if (dim.kind == DimKind::kContinuous &&
          info->cls == FieldClass::kInteger)
        throw ConfigError("space: field '" + dim.field +
                          "' is integral; use type 'integer'");
      const Json* lo = d.find("lo");
      const Json* hi = d.find("hi");
      if (lo == nullptr || hi == nullptr)
        throw ConfigError("space: numeric dimension '" + dim.field +
                          "' needs 'lo' and 'hi' bounds");
      dim.lo = lo->as_number();
      dim.hi = hi->as_number();
      if (dim.kind == DimKind::kInteger) {
        dim.lo = std::ceil(dim.lo);
        dim.hi = std::floor(dim.hi);
      }
      if (!(dim.lo <= dim.hi))
        throw ConfigError("space: dimension '" + dim.field +
                          "' has inverted bounds");
      if (dim.lo < info->domain_lo)
        throw ConfigError("space: dimension '" + dim.field +
                          "' lower bound is outside the field's domain");
    }
    space.dims_.push_back(std::move(dim));
  }
  return space;
}

ScenarioSpace ScenarioSpace::load_file(const std::string& path) {
  try {
    return from_json(faultline::load_json_file(path));
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

Point ScenarioSpace::sample(Rng& rng) const {
  Point p;
  p.coords.reserve(dims_.size());
  for (const Dimension& d : dims_) {
    switch (d.kind) {
      case DimKind::kContinuous:
        p.coords.push_back(d.lo == d.hi ? d.lo : rng.uniform(d.lo, d.hi));
        break;
      case DimKind::kInteger:
        p.coords.push_back(static_cast<double>(rng.uniform_int(
            static_cast<std::int64_t>(d.lo), static_cast<std::int64_t>(d.hi))));
        break;
      case DimKind::kCategorical:
        p.coords.push_back(static_cast<double>(
            rng.next_below(static_cast<std::uint64_t>(d.values.size()))));
        break;
    }
  }
  return p;
}

Point ScenarioSpace::mutate(const Point& p, Rng& rng, double scale) const {
  const std::size_t dim =
      static_cast<std::size_t>(rng.next_below(dims_.size()));
  return mutate_dimension(p, dim, rng, scale);
}

Point ScenarioSpace::mutate_dimension(const Point& p, std::size_t dim,
                                      Rng& rng, double scale) const {
  if (dim >= dims_.size())
    throw ConfigError("space: mutate_dimension index out of range");
  if (p.coords.size() != dims_.size())
    throw ConfigError("space: point has wrong dimensionality");
  Point out = p;
  const Dimension& d = dims_[dim];
  double& v = out.coords[dim];
  switch (d.kind) {
    case DimKind::kContinuous: {
      const double step = rng.normal(0.0, scale * (d.hi - d.lo));
      v = std::clamp(v + step, d.lo, d.hi);
      break;
    }
    case DimKind::kInteger: {
      const double span = d.hi - d.lo;
      double step =
          std::round(rng.normal(0.0, std::max(1.0, scale * span)));
      // A rounded-to-zero step would be a silent no-op; take a unit step
      // in a seeded direction instead so mutation always moves when the
      // range allows it.
      if (step == 0.0) step = rng.next_below(2) == 0 ? -1.0 : 1.0;
      v = std::clamp(std::round(v + step), d.lo, d.hi);
      break;
    }
    case DimKind::kCategorical: {
      const std::size_t n = d.values.size();
      if (n < 2) break;  // a single category cannot change
      // Jump to a uniformly chosen *different* category: categorical
      // dimensions are never interpolated.
      const auto current = static_cast<std::uint64_t>(v);
      std::uint64_t pick = rng.next_below(n - 1);
      if (pick >= current) ++pick;
      v = static_cast<double>(pick);
      break;
    }
  }
  return clamp(std::move(out));
}

Point ScenarioSpace::crossover(const Point& a, const Point& b,
                               Rng& rng) const {
  if (a.coords.size() != dims_.size() || b.coords.size() != dims_.size())
    throw ConfigError("space: crossover parents have wrong dimensionality");
  Point out;
  out.coords.reserve(dims_.size());
  for (std::size_t i = 0; i < dims_.size(); ++i)
    out.coords.push_back(rng.next_below(2) == 0 ? a.coords[i] : b.coords[i]);
  return clamp(std::move(out));
}

bool ScenarioSpace::in_bounds(const Point& p) const {
  if (p.coords.size() != dims_.size()) return false;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Dimension& d = dims_[i];
    const double v = p.coords[i];
    if (!std::isfinite(v)) return false;
    switch (d.kind) {
      case DimKind::kContinuous:
        if (v < d.lo || v > d.hi) return false;
        break;
      case DimKind::kInteger:
        if (v != std::round(v) || v < d.lo || v > d.hi) return false;
        break;
      case DimKind::kCategorical:
        if (v != std::round(v) || v < 0.0 ||
            v >= static_cast<double>(d.values.size()))
          return false;
        break;
    }
  }
  return true;
}

Point ScenarioSpace::clamp(Point p) const {
  if (p.coords.size() != dims_.size())
    throw ConfigError("space: point has wrong dimensionality");
  for (std::size_t i = 0; i < dims_.size(); ++i)
    p.coords[i] = canonical_coord(dims_[i], p.coords[i]);
  return p;
}

std::uint64_t ScenarioSpace::point_hash(const Point& p) const {
  if (p.coords.size() != dims_.size())
    throw ConfigError("space: point has wrong dimensionality");
  std::uint64_t h = 0x53504143'45503031ULL;  // "SPACEP01"
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Dimension& d = dims_[i];
    const double v = canonical_coord(d, p.coords[i]);
    if (d.kind == DimKind::kContinuous) {
      mix_double(h, v);
    } else {
      mix(h, static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(std::llround(v))));
    }
  }
  return h;
}

runner::ScenarioSpec ScenarioSpace::materialize(const Point& p) const {
  if (!in_bounds(p))
    throw ConfigError("space: cannot materialize an out-of-bounds point");
  runner::ScenarioSpec spec = base_;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Dimension& d = dims_[i];
    const double v = p.coords[i];
    if (d.kind == DimKind::kCategorical) {
      const std::string& value = d.values[static_cast<std::size_t>(v)];
      if (d.field == "app") spec.app = value;
      else if (d.field == "anomaly") spec.anomaly = value;
      else spec.system = value;
      continue;
    }
    if (d.field == "intensity") spec.intensity = v;
    else if (d.field == "duration_s") spec.duration_s = v;
    else if (d.field == "sample_period_s") spec.sample_period_s = v;
    else if (d.field == "injector_fail_at_s") spec.injector_fail_at_s = v;
    else if (d.field == "app_nodes") spec.app_nodes = static_cast<int>(v);
    else if (d.field == "ranks_per_node")
      spec.ranks_per_node = static_cast<int>(v);
    else spec.injector_fail_tasks = static_cast<int>(v);
  }
  const std::uint64_t hash = point_hash(p);
  char buf[24];
  std::snprintf(buf, sizeof buf, "e%016llx",
                static_cast<unsigned long long>(hash));
  spec.name = buf;
  spec.seed = runner::derive_scenario_seed(base_seed_, hash);
  return spec;
}

Json ScenarioSpace::point_json(const Point& p) const {
  if (!in_bounds(p))
    throw ConfigError("space: cannot serialize an out-of-bounds point");
  Json obj = Json::object();
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    const Dimension& d = dims_[i];
    if (d.kind == DimKind::kCategorical)
      obj.set(d.field, d.values[static_cast<std::size_t>(p.coords[i])]);
    else
      obj.set(d.field, p.coords[i]);
  }
  return obj;
}

dataset::DatasetPlan plan_from_space(const ScenarioSpace& space,
                                     std::uint64_t rows, double warmup_s,
                                     double noise, bool include_bandwidth) {
  require(rows > 0, "plan_from_space: need at least one row");
  dataset::DatasetPlan plan =
      dataset::make_plan(space.name(), warmup_s, noise, include_bandwidth);
  // The anomaly axis (when present) fixes the label map up front; sampled
  // rows can only draw from it, so the class list is row-count-invariant.
  plan.label_of(space.base().anomaly);
  for (const Dimension& dim : space.dimensions()) {
    if (dim.field == "anomaly")
      for (const std::string& v : dim.values) plan.label_of(v);
  }
  Rng rng(space.base_seed());
  plan.rows.reserve(rows);
  for (std::uint64_t r = 0; r < rows; ++r)
    plan.add_scenario_row(space.materialize(space.sample(rng)));
  return plan;
}

}  // namespace hpas::search
