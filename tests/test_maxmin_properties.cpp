// Property-based tests for max-min fair allocation (sim/maxmin.cpp).
//
// Seeded-random demand vectors (including infinite/greedy consumers)
// checked against the water-filling invariants: feasibility, capacity
// respect, work conservation, bottleneck saturation, permutation
// invariance, and weighted proportionality. Every case is reproducible
// from the printed seed.
#include "sim/maxmin.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace hpas::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kTol = 1e-9;

struct Case {
  double capacity;
  std::vector<double> demands;
};

Case random_case(Rng& rng) {
  Case c;
  c.capacity = rng.uniform(0.0, 100.0);
  const int n = static_cast<int>(rng.uniform_int(1, 12));
  for (int i = 0; i < n; ++i) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.2) {
      c.demands.push_back(kInf);  // greedy consumer
    } else if (roll < 0.3) {
      c.demands.push_back(0.0);   // idle consumer
    } else {
      c.demands.push_back(rng.uniform(0.0, 40.0));
    }
  }
  return c;
}

void check_invariants(const Case& c, const std::vector<double>& alloc) {
  ASSERT_EQ(alloc.size(), c.demands.size());
  double total = 0.0;
  double finite_demand_total = 0.0;
  bool any_infinite = false;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    // Feasibility: 0 <= alloc[i] <= demand[i].
    EXPECT_GE(alloc[i], 0.0) << "i=" << i;
    EXPECT_LE(alloc[i], c.demands[i] + kTol) << "i=" << i;
    total += alloc[i];
    if (std::isinf(c.demands[i])) {
      any_infinite = true;
    } else {
      finite_demand_total += c.demands[i];
    }
  }
  // Capacity is never exceeded.
  EXPECT_LE(total, c.capacity + kTol);
  // Work conservation: the link carries min(capacity, total demand).
  const double expected_total =
      any_infinite ? c.capacity : std::min(c.capacity, finite_demand_total);
  EXPECT_NEAR(total, expected_total, 1e-6 * std::max(1.0, expected_total));

  // Bottleneck saturation / max-min optimality: any consumer that did not
  // get its full demand receives at least as much as every other
  // consumer (its allocation is the fair share, the maximum of the
  // smallest).
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    if (alloc[i] + kTol < c.demands[i]) {
      for (std::size_t j = 0; j < alloc.size(); ++j)
        EXPECT_LE(alloc[j], alloc[i] + 1e-6)
            << "consumer " << i << " is capped below consumer " << j;
    }
  }
}

TEST(MaxMinProperties, RandomCasesSatisfyInvariants) {
  Rng rng(0xFA1Bu);
  for (int trial = 0; trial < 500; ++trial) {
    const Case c = random_case(rng);
    const auto alloc = max_min_allocate(c.capacity, c.demands);
    check_invariants(c, alloc);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "failing trial " << trial << " capacity="
                    << c.capacity;
      break;
    }
  }
}

TEST(MaxMinProperties, PermutationInvariance) {
  Rng rng(0x5EEDu);
  for (int trial = 0; trial < 200; ++trial) {
    const Case c = random_case(rng);
    const auto alloc = max_min_allocate(c.capacity, c.demands);

    // Shuffle demands, allocate, un-shuffle: same answer per consumer.
    std::vector<std::size_t> perm(c.demands.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    for (std::size_t i = perm.size(); i > 1; --i)
      std::swap(perm[i - 1],
                perm[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);

    std::vector<double> shuffled(c.demands.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
      shuffled[i] = c.demands[perm[i]];
    const auto shuffled_alloc = max_min_allocate(c.capacity, shuffled);
    for (std::size_t i = 0; i < perm.size(); ++i)
      EXPECT_NEAR(shuffled_alloc[i], alloc[perm[i]], 1e-9)
          << "trial " << trial << " slot " << i;
  }
}

TEST(MaxMinProperties, GreedyConsumersSplitResidualEvenly) {
  // Two greedy consumers next to small finite ones: the greedy pair
  // splits what the finite demands leave, equally.
  const std::vector<double> demands = {1.0, kInf, 2.0, kInf};
  const auto alloc = max_min_allocate(10.0, demands);
  EXPECT_NEAR(alloc[0], 1.0, kTol);
  EXPECT_NEAR(alloc[2], 2.0, kTol);
  EXPECT_NEAR(alloc[1], 3.5, kTol);
  EXPECT_NEAR(alloc[3], 3.5, kTol);
}

TEST(MaxMinProperties, UnderloadedLinkGrantsAllDemands) {
  const std::vector<double> demands = {1.0, 2.0, 3.0};
  const auto alloc = max_min_allocate(100.0, demands);
  for (std::size_t i = 0; i < demands.size(); ++i)
    EXPECT_NEAR(alloc[i], demands[i], kTol);
}

TEST(MaxMinProperties, EmptyAndZeroEdgeCases) {
  EXPECT_TRUE(max_min_allocate(5.0, std::vector<double>{}).empty());
  const auto zero_cap = max_min_allocate(0.0, std::vector<double>{1.0, kInf});
  EXPECT_NEAR(zero_cap[0], 0.0, kTol);
  EXPECT_NEAR(zero_cap[1], 0.0, kTol);
}

TEST(MaxMinWeightedProperties, ReducesToUnweightedAtEqualWeights) {
  Rng rng(0xBEEFu);
  for (int trial = 0; trial < 100; ++trial) {
    const Case c = random_case(rng);
    const std::vector<double> ones(c.demands.size(), 1.0);
    const auto plain = max_min_allocate(c.capacity, c.demands);
    const auto weighted =
        max_min_allocate_weighted(c.capacity, c.demands, ones);
    for (std::size_t i = 0; i < plain.size(); ++i)
      EXPECT_NEAR(weighted[i], plain[i], 1e-9) << "trial " << trial;
  }
}

TEST(MaxMinWeightedProperties, SharesProportionalToWeightWhileUnsaturated) {
  // Two greedy consumers with weights 1 and 3 split 8.0 as 2:6.
  const std::vector<double> demands = {kInf, kInf};
  const std::vector<double> weights = {1.0, 3.0};
  const auto alloc = max_min_allocate_weighted(8.0, demands, weights);
  EXPECT_NEAR(alloc[0], 2.0, kTol);
  EXPECT_NEAR(alloc[1], 6.0, kTol);
}

TEST(MaxMinWeightedProperties, RandomCasesRespectCapacityAndDemands) {
  Rng rng(0xCAFEu);
  for (int trial = 0; trial < 200; ++trial) {
    const Case c = random_case(rng);
    std::vector<double> weights;
    weights.reserve(c.demands.size());
    for (std::size_t i = 0; i < c.demands.size(); ++i)
      weights.push_back(rng.uniform(0.1, 5.0));
    const auto alloc =
        max_min_allocate_weighted(c.capacity, c.demands, weights);
    ASSERT_EQ(alloc.size(), c.demands.size());
    double total = 0.0;
    for (std::size_t i = 0; i < alloc.size(); ++i) {
      EXPECT_GE(alloc[i], -kTol);
      EXPECT_LE(alloc[i], c.demands[i] + kTol);
      total += alloc[i];
    }
    EXPECT_LE(total, c.capacity + 1e-6) << "trial " << trial;
  }
}

}  // namespace
}  // namespace hpas::sim
