// The ScenarioSpec field table (runner::kSpecFields) behind the key hash,
// the wire JSON, the grid and space readers and the search dimensions.
// Per row: a perturbed field changes the key, survives the JSON round
// trip, is what a search dimension materializes, and is rejected below
// its bound. The key and wire bytes of two specs are pinned, so a
// reordered or retyped table fails here; ScenarioKeyHash.
// StableAndSensitiveToEveryField (test_journal.cpp) stays the
// independent hand-written field list. Also: the samples-per-spec cap in
// specs, grids and spaces, and every shipped example grid and space loads.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <type_traits>

#include "common/error.hpp"
#include "runner/grid.hpp"
#include "runner/journal.hpp"
#include "runner/runner.hpp"
#include "search/space.hpp"

namespace {

namespace fs = std::filesystem;
using hpas::ConfigError;
using hpas::Json;
using hpas::runner::for_each_spec_field;
using hpas::runner::scenario_key_hash;
using hpas::runner::ScenarioSpec;
using hpas::runner::spec_from_json;
using hpas::runner::spec_to_json;
using hpas::runner::validate_spec;
using hpas::search::Point;
using hpas::search::ScenarioSpace;

/// Every configured field off its default.
ScenarioSpec off_default() {
  ScenarioSpec s;
  s.name = "pinned";
  s.system = "chameleon";
  s.app = "CoMD";
  s.anomaly = "membw";
  s.intensity = 1.5;
  s.duration_s = 30.0;
  s.sample_period_s = 0.5;
  s.app_nodes = 3;
  s.ranks_per_node = 2;
  s.run_to_completion = true;
  s.injector_fail_at_s = 5.0;
  s.injector_fail_tasks = 3;
  s.seed = 12345678901234567890ULL;
  return s;
}

TEST(SpecFields, TableHoldsTheElevenConfiguredFields) {
  using Table = std::remove_cv_t<decltype(hpas::runner::kSpecFields)>;
  EXPECT_EQ(std::tuple_size_v<Table>, 11u);
}

TEST(SpecFields, EveryRowIsKeyedRoundTripsMaterializesAndIsBounded) {
  ScenarioSpec base;
  base.name = "base";
  base.seed = 42;
  const ScenarioSpec other = off_default();
  for_each_spec_field([&](const auto& row) {
    using T = std::remove_cvref_t<decltype(base.*row.member)>;
    const std::string name(row.name);
    ScenarioSpec s = base;
    s.*row.member = other.*row.member;
    ASSERT_NE(s.*row.member, base.*row.member) << name;

    EXPECT_NE(scenario_key_hash(s), scenario_key_hash(base)) << name;

    const ScenarioSpec back = spec_from_json(spec_to_json(s));
    EXPECT_EQ(back.*row.member, s.*row.member) << name;
    EXPECT_EQ(scenario_key_hash(back), scenario_key_hash(s)) << name;
    EXPECT_EQ(spec_to_json(back).dump(), spec_to_json(s).dump()) << name;

    if constexpr (!std::is_same_v<T, bool>) {
      // A one-point dimension on the row materializes the perturbed value.
      Json dim = Json::object();
      dim.set("name", name);
      double coord = 0.0;
      if constexpr (std::is_same_v<T, std::string>) {
        dim.set("type", "categorical");
        Json values = Json::array();
        values.push_back(other.*row.member);
        dim.set("values", std::move(values));
      } else {
        coord = static_cast<double>(other.*row.member);
        dim.set("type", std::is_same_v<T, int> ? "integer" : "continuous");
        dim.set("lo", coord);
        dim.set("hi", coord);
      }
      Json doc = Json::object();
      Json dims = Json::array();
      dims.push_back(dim);
      doc.set("dimensions", std::move(dims));
      const ScenarioSpace space = ScenarioSpace::from_json(doc);
      EXPECT_EQ(space.materialize(Point{{coord}}).*row.member,
                other.*row.member)
          << name;
    }

    ScenarioSpec bad = base;
    if constexpr (std::is_same_v<T, std::string>) {
      bad.*row.member = "bogus";
    } else if constexpr (!std::is_same_v<T, bool>) {
      // At an inclusive bound a value is valid; below (or at an exclusive
      // one) it is not.
      if (!row.above) {
        ScenarioSpec at = base;
        at.*row.member = static_cast<T>(row.lo);
        EXPECT_NO_THROW(validate_spec(at)) << name;
      }
      bad.*row.member = static_cast<T>(row.above ? row.lo : row.lo - 1.0);
    }
    if constexpr (!std::is_same_v<T, bool>) {
      EXPECT_THROW(validate_spec(bad), ConfigError) << name;
      EXPECT_THROW(spec_from_json(spec_to_json(bad)), ConfigError) << name;
    }
  });
}

TEST(SpecFields, KeyAndWireBytesArePinned) {
  const ScenarioSpec pinned = off_default();
  EXPECT_EQ(scenario_key_hash(pinned), 0x39a6283dbdb7639bULL);
  EXPECT_EQ(spec_to_json(pinned).dump(),
            R"({"name":"pinned","system":"chameleon","app":"CoMD",)"
            R"("anomaly":"membw","intensity":1.5,"duration_s":30,)"
            R"("sample_period_s":0.5,"app_nodes":3,"ranks_per_node":2,)"
            R"("run_to_completion":true,"injector_fail_at_s":5,)"
            R"("injector_fail_tasks":3,"seed":"12345678901234567890"})");

  const ScenarioSpec defaults;
  EXPECT_EQ(scenario_key_hash(defaults), 0x22b9693a0b908653ULL);
  EXPECT_EQ(spec_to_json(defaults).dump(),
            R"({"name":"","system":"voltrino","app":"none","anomaly":"none",)"
            R"("intensity":1,"duration_s":60,"sample_period_s":1,)"
            R"("app_nodes":2,"ranks_per_node":4,"run_to_completion":false,)"
            R"("injector_fail_at_s":0,"injector_fail_tasks":-1,"seed":"0"})");
}

TEST(SpecFields, SystemTableNamesEveryPreset) {
  EXPECT_EQ(hpas::runner::system_names(),
            "voltrino, chameleon or dragonfly1k");
  for (const char* name : {"voltrino", "chameleon", "dragonfly1k"})
    EXPECT_EQ(hpas::runner::system_preset(name).name, name);
  EXPECT_THROW(hpas::runner::system_preset("bogus"), ConfigError);
}

TEST(SpecFields, GridScalarsAreTypeCheckedBeforeTheAxesOverrideThem) {
  Json grid = Json::object();
  grid.set("apps", Json(Json::Array{Json("CoMD")}));
  grid.set("app", 3.0);
  EXPECT_THROW(hpas::runner::expand_grid(grid), ConfigError);
  grid.set("app", "milc");
  const auto expanded = hpas::runner::expand_grid(grid);
  ASSERT_EQ(expanded.scenarios.size(), 1u);
  EXPECT_EQ(expanded.scenarios[0].app, "CoMD");
}

TEST(SpecFields, SpacesAcceptAnyPositiveLowerBound) {
  // One predicate (> 0) bounds the positive fields in specs and spaces.
  const auto space = ScenarioSpace::from_json(Json::parse(R"({"dimensions": [
    {"name": "intensity", "type": "continuous", "lo": 1e-9, "hi": 1}]})"));
  EXPECT_DOUBLE_EQ(space.materialize(Point{{1e-9}}).intensity, 1e-9);
  EXPECT_THROW(ScenarioSpace::from_json(Json::parse(R"({"dimensions": [
    {"name": "intensity", "type": "continuous", "lo": 0, "hi": 1}]})")),
               ConfigError);
  // A flag is not a dimension.
  EXPECT_THROW(ScenarioSpace::from_json(Json::parse(R"({"dimensions": [
    {"name": "run_to_completion", "type": "integer", "lo": 0, "hi": 1}]})")),
               ConfigError);
}

TEST(SampleCap, TheCapIsInclusiveAndNamedInTheError) {
  ScenarioSpec spec;
  spec.duration_s = hpas::runner::kMaxSamplesPerSpec;
  spec.sample_period_s = 1.0;
  EXPECT_NO_THROW(validate_spec(spec));
  spec.sample_period_s = 0.5;
  try {
    validate_spec(spec);
    FAIL() << "a spec above the cap was accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()),
              "duration_s / sample_period_s = 2000000 exceeds the cap of "
              "1000000 samples per spec");
  }
}

TEST(SampleCap, TheOldHungGridFailsToLoad) {
  // 1e9 s sampled every millisecond: 1e12 samples.
  const fs::path path = fs::path(::testing::TempDir()) / "old_hung_sweep.json";
  std::ofstream(path) << R"({"name": "hung_sweep", "apps": ["CoMD"],
    "anomalies": ["netoccupy"], "duration_s": 1000000000,
    "sample_period_s": 0.001})";
  EXPECT_THROW(hpas::runner::load_grid_file(path.string()), ConfigError);
  fs::remove(path);
}

TEST(SampleCap, SpacesAreCheckedAtTheirLongestWindowAndShortestPeriod) {
  const auto parse = [](const std::string& dims) {
    return ScenarioSpace::from_json(
        Json::parse(R"({"sample_period_s": 1, "dimensions": [)" + dims +
                    "]}"));
  };
  const std::string window =
      R"({"name": "duration_s", "type": "continuous", "lo": 10, "hi": 1e6})";
  const std::string period = R"({"name": "sample_period_s",
                                  "type": "continuous", "lo": 0.5, "hi": 2})";
  EXPECT_NO_THROW(parse(window));
  EXPECT_NO_THROW(parse(period));  // the base window is 60 s
  EXPECT_THROW(parse(window + "," + period), ConfigError);
  EXPECT_THROW(parse(R"({"name": "duration_s", "type": "continuous",
                         "lo": 10, "hi": 2e6})"),
               ConfigError);
}

TEST(Examples, EveryShippedGridAndSpaceLoads) {
  std::size_t grids = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(HPAS_EXAMPLES_DIR) / "grids")) {
    SCOPED_TRACE(entry.path().string());
    EXPECT_FALSE(
        hpas::runner::load_grid_file(entry.path().string()).scenarios.empty());
    ++grids;
  }
  std::size_t spaces = 0;
  for (const auto& entry :
       fs::directory_iterator(fs::path(HPAS_EXAMPLES_DIR) / "spaces")) {
    SCOPED_TRACE(entry.path().string());
    EXPECT_GT(ScenarioSpace::load_file(entry.path().string()).size(), 0u);
    ++spaces;
  }
  EXPECT_GE(grids, 4u);
  EXPECT_GE(spaces, 1u);
}

}  // namespace
