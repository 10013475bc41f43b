// Property tests for the typed scenario-space abstraction: validation
// rejects malformed spaces; sampling/mutation/crossover stay in bounds
// and canonical; categoricals are never interpolated; seeded sequences
// are bit-reproducible; point identity (hash -> name/seed) is stable; a
// space's dataset plan keeps its digest and thread-count byte-identity.
#include "search/space.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dataset/factory.hpp"

namespace {

using hpas::ConfigError;
using hpas::Json;
using hpas::Rng;
using hpas::search::DimKind;
using hpas::search::Point;
using hpas::search::ScenarioSpace;

const char* kSpaceText = R"({
  "name": "test_space",
  "system": "voltrino",
  "seed": 42,
  "app": "CoMD",
  "duration_s": 20,
  "sample_period_s": 1.0,
  "dimensions": [
    {"name": "app", "type": "categorical", "values": ["CoMD", "milc"]},
    {"name": "anomaly", "type": "categorical",
     "values": ["cpuoccupy", "cachecopy", "membw"]},
    {"name": "intensity", "type": "continuous", "lo": 0.25, "hi": 2.0},
    {"name": "ranks_per_node", "type": "integer", "lo": 1, "hi": 4}
  ]
})";

ScenarioSpace test_space() {
  return ScenarioSpace::from_json(Json::parse(kSpaceText));
}

TEST(SearchSpace, ParsesDimensionsAndBase) {
  const ScenarioSpace space = test_space();
  EXPECT_EQ(space.name(), "test_space");
  EXPECT_EQ(space.base_seed(), 42u);
  EXPECT_EQ(space.size(), 4u);
  EXPECT_EQ(space.dimensions()[0].kind, DimKind::kCategorical);
  EXPECT_EQ(space.dimensions()[2].kind, DimKind::kContinuous);
  EXPECT_EQ(space.dimensions()[3].kind, DimKind::kInteger);
  EXPECT_EQ(space.base().app, "CoMD");
  EXPECT_DOUBLE_EQ(space.base().duration_s, 20.0);
}

TEST(SearchSpace, RejectsMalformedSpaces) {
  const auto parse = [](const std::string& text) {
    return ScenarioSpace::from_json(Json::parse(text));
  };
  // No dimensions.
  EXPECT_THROW(parse(R"({"name": "x"})"), ConfigError);
  // Unknown field.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "nonsense", "type": "continuous", "lo": 0, "hi": 1}]})"),
               ConfigError);
  // A continuous binding of a categorical field.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "app", "type": "continuous", "lo": 0, "hi": 1}]})"),
               ConfigError);
  // A continuous binding of an integral field.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "app_nodes", "type": "continuous", "lo": 1, "hi": 2}]})"),
               ConfigError);
  // Inverted bounds.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "intensity", "type": "continuous", "lo": 2, "hi": 1}]})"),
               ConfigError);
  // Bounds outside the field's domain.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "intensity", "type": "continuous", "lo": -1, "hi": 1}]})"),
               ConfigError);
  // Unknown category values.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "anomaly", "type": "categorical", "values": ["bogus"]}]})"),
               ConfigError);
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "app", "type": "categorical", "values": ["NotAnApp"]}]})"),
               ConfigError);
  // Duplicate dimensions.
  EXPECT_THROW(parse(R"({"dimensions": [
    {"name": "intensity", "type": "continuous", "lo": 0.5, "hi": 1},
    {"name": "intensity", "type": "continuous", "lo": 0.5, "hi": 1}]})"),
               ConfigError);
}

TEST(SearchSpace, SamplesAreAlwaysInBounds) {
  const ScenarioSpace space = test_space();
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Point p = space.sample(rng);
    EXPECT_TRUE(space.in_bounds(p));
  }
}

TEST(SearchSpace, MutationsAndCrossoversStayInBounds) {
  const ScenarioSpace space = test_space();
  Rng rng(11);
  Point p = space.sample(rng);
  Point q = space.sample(rng);
  for (int i = 0; i < 1000; ++i) {
    const Point m = space.mutate(p, rng, 0.5);
    ASSERT_TRUE(space.in_bounds(m)) << "mutation escaped bounds at step "
                                    << i;
    const Point c = space.crossover(p, q, rng);
    ASSERT_TRUE(space.in_bounds(c));
    q = p;
    p = m;
  }
}

TEST(SearchSpace, CategoricalsNeverInterpolate) {
  const ScenarioSpace space = test_space();
  Rng rng(13);
  Point p = space.sample(rng);
  for (int i = 0; i < 500; ++i) {
    // Mutate the anomaly dimension (index 1, three categories).
    const Point m = space.mutate_dimension(p, 1, rng, 0.5);
    const double v = m.coords[1];
    ASSERT_EQ(v, std::round(v)) << "categorical coordinate interpolated";
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 3.0);
    ASSERT_NE(v, p.coords[1]) << "categorical mutation must move";
    p = m;
  }
}

TEST(SearchSpace, CrossoverCopiesParentCoordinatesVerbatim) {
  const ScenarioSpace space = test_space();
  Rng rng(17);
  const Point a = space.sample(rng);
  const Point b = space.sample(rng);
  for (int i = 0; i < 200; ++i) {
    const Point c = space.crossover(a, b, rng);
    for (std::size_t d = 0; d < space.size(); ++d) {
      ASSERT_TRUE(c.coords[d] == a.coords[d] || c.coords[d] == b.coords[d])
          << "crossover invented a coordinate in dimension " << d;
    }
  }
}

TEST(SearchSpace, SeededSequencesAreReproducible) {
  const ScenarioSpace space = test_space();
  Rng rng1(123), rng2(123), rng3(456);
  bool any_differs = false;
  Point p1 = space.sample(rng1);
  Point p2 = space.sample(rng2);
  Point p3 = space.sample(rng3);
  EXPECT_EQ(p1.coords, p2.coords);
  for (int i = 0; i < 200; ++i) {
    p1 = space.mutate(p1, rng1, 0.3);
    p2 = space.mutate(p2, rng2, 0.3);
    p3 = space.mutate(p3, rng3, 0.3);
    ASSERT_EQ(p1.coords, p2.coords) << "same-seed sequences diverged";
    if (p1.coords != p3.coords) any_differs = true;
  }
  EXPECT_TRUE(any_differs) << "different seeds produced identical walks";
}

TEST(SearchSpace, PointIdentityIsStable) {
  const ScenarioSpace space = test_space();
  Point p;
  p.coords = {1.0, 2.0, 0.5, 3.0};  // milc, membw, x0.5, 3 ranks
  const Point q = p;
  EXPECT_EQ(space.point_hash(p), space.point_hash(q));

  const auto spec = space.materialize(p);
  const auto spec2 = space.materialize(q);
  EXPECT_EQ(spec.name, spec2.name);
  EXPECT_EQ(spec.seed, spec2.seed);
  ASSERT_EQ(spec.name.size(), 17u);  // "e" + 16 hex digits
  EXPECT_EQ(spec.name[0], 'e');

  // The point binds onto the base spec.
  EXPECT_EQ(spec.app, "milc");
  EXPECT_EQ(spec.anomaly, "membw");
  EXPECT_DOUBLE_EQ(spec.intensity, 0.5);
  EXPECT_EQ(spec.ranks_per_node, 3);
  EXPECT_EQ(spec.system, "voltrino");
  EXPECT_DOUBLE_EQ(spec.duration_s, 20.0);

  // A different point gets a different identity.
  Point r = p;
  r.coords[2] = 0.75;
  EXPECT_NE(space.point_hash(p), space.point_hash(r));
  EXPECT_NE(space.materialize(r).name, spec.name);
}

TEST(SearchSpace, ClampCanonicalizes) {
  const ScenarioSpace space = test_space();
  Point wild;
  wild.coords = {7.3, -2.0, 99.0, 2.4};
  const Point c = space.clamp(wild);
  EXPECT_TRUE(space.in_bounds(c));
  EXPECT_EQ(c.coords[0], 1.0);   // categorical clamped to last index
  EXPECT_EQ(c.coords[1], 0.0);   // categorical clamped to first index
  EXPECT_EQ(c.coords[2], 2.0);   // continuous clipped to hi
  EXPECT_EQ(c.coords[3], 2.0);   // integer rounded
}

TEST(SearchSpace, PointJsonNamesDimensionValues) {
  const ScenarioSpace space = test_space();
  Point p;
  p.coords = {0.0, 2.0, 1.25, 4.0};
  const Json doc = space.point_json(p);
  EXPECT_EQ(doc.find("app")->as_string(), "CoMD");
  EXPECT_EQ(doc.find("anomaly")->as_string(), "membw");
  EXPECT_DOUBLE_EQ(doc.find("intensity")->as_number(), 1.25);
  EXPECT_DOUBLE_EQ(doc.find("ranks_per_node")->as_number(), 4.0);
}

// --- plan_from_space: a space as a dataset plan ----------------------

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(SearchSpace, DatasetPlanDigestPinnedAndThreadInvariant) {
  const ScenarioSpace space =
      ScenarioSpace::load_file(std::string(HPAS_SPACES_DIR) +
                               "/fig08_search.json");
  const hpas::dataset::DatasetPlan plan = hpas::search::plan_from_space(
      space, /*rows=*/8, /*warmup_s=*/2.0, /*noise=*/0.5,
      /*include_bandwidth=*/false);
  ASSERT_EQ(plan.rows.size(), 8u);
  // Base anomaly first, then the anomaly axis in declaration order.
  EXPECT_EQ(plan.class_names,
            (std::vector<std::string>{"none", "cpuoccupy", "cachecopy",
                                      "membw"}));
  // The plan identity that `hpas dataset --resume` validates; pinned so a
  // refactor of the planners cannot silently orphan existing datasets.
  EXPECT_EQ(plan.digest(), 0x58c52c27fd982f7dULL);

  const auto base = std::filesystem::temp_directory_path() /
                    "hpas_test_search_space_plan";
  std::filesystem::remove_all(base);
  for (const int threads : {1, 4}) {
    hpas::dataset::DatasetFactoryOptions options;
    options.out_dir =
        (base / std::string("j").append(std::to_string(threads))).string();
    options.shards = 2;
    options.threads = threads;
    options.write_csv = true;
    ASSERT_TRUE(hpas::dataset::run_dataset_factory(plan, options).complete);
  }
  // Every output but the journal, an execution log whose checkpoint
  // records follow completion order.
  for (const char* name : {"shard-000.hpasds", "shard-001.hpasds",
                           "manifest.json", "dataset.csv"}) {
    EXPECT_EQ(slurp(base / "j1" / name), slurp(base / "j4" / name)) << name;
  }
  std::filesystem::remove_all(base);
}

}  // namespace
