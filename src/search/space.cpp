#include "search/space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <type_traits>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "dataset/factory.hpp"
#include "faultline/durable.hpp"

namespace hpas::search {
namespace {

/// Sets the dimension's field of `spec` to coordinate `v` (the category
/// index for a categorical dimension).
void assign(runner::ScenarioSpec& spec, const Dimension& d, double v) {
  std::visit(
      [&](auto member) {
        auto& field = spec.*member;
        using T = std::remove_cvref_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::string>)
          field = d.values[static_cast<std::size_t>(v)];
        else
          field = static_cast<T>(v);
      },
      d.member);
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

  runner::read_spec_fields(spec, space.base_);
  runner::validate_spec(space.base_);

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
    runner::for_each_spec_field([&](const auto& row) {
      using T = std::remove_cvref_t<decltype(space.base_.*row.member)>;
      if constexpr (!std::is_same_v<T, bool>)
        if (row.name == dim.field) dim.member = row.member;
    });
    if (std::visit([](auto member) { return member == nullptr; }, dim.member))
      throw ConfigError("space: '" + dim.field +
                        "' is not a ScenarioSpec field a dimension can bind");
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

    const bool categorical = dim.kind == DimKind::kCategorical;
    if (categorical !=
        std::holds_alternative<std::string runner::ScenarioSpec::*>(dim.member))
      throw ConfigError(
          "space: field '" + dim.field +
          (categorical ? "' is numeric; it cannot be categorical"
                       : "' is categorical; give it 'values', not bounds"));
    if (categorical) {
      const Json* values = d.find("values");
      if (values == nullptr || !values->is_array() ||
          values->as_array().empty())
        throw ConfigError("space: categorical dimension '" + dim.field +
                          "' needs a non-empty 'values' array");
      for (const Json& v : values->as_array())
        dim.values.push_back(v.as_string());
    } else {
      if (dim.kind == DimKind::kContinuous &&
          std::holds_alternative<int runner::ScenarioSpec::*>(dim.member))
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
    }
    // Each category, and a numeric lower bound (rows bound fields only
    // from below), must make a valid spec.
    for (std::size_t i = 0; i < (categorical ? dim.values.size() : 1); ++i) {
      runner::ScenarioSpec probe = space.base_;
      assign(probe, dim, categorical ? static_cast<double>(i) : dim.lo);
      runner::validate_spec(probe);
    }
    space.dims_.push_back(std::move(dim));
  }
  // No point may ask for more samples than the longest window over the
  // shortest period, and run_scenario() must accept that many.
  runner::ScenarioSpec most_samples = space.base_;
  for (const Dimension& d : space.dims_) {
    if (d.field == "duration_s") most_samples.duration_s = d.hi;
    if (d.field == "sample_period_s") most_samples.sample_period_s = d.lo;
  }
  runner::validate_spec(most_samples);
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
  for (std::size_t i = 0; i < dims_.size(); ++i)
    assign(spec, dims_[i], p.coords[i]);
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
