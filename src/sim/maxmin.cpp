#include "sim/maxmin.hpp"

#include <limits>

#include "common/error.hpp"

namespace hpas::sim {
namespace {

void validate_inputs(double capacity, std::span<const double> demands,
                     std::span<const double> weights) {
  require(capacity >= 0.0, "max_min: negative capacity");
  require(demands.size() == weights.size(), "max_min: size mismatch");
  // Validate once up front; the round loop used to re-check every entry
  // each round, turning an O(n) scan into O(n^2) require calls.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    require(demands[i] >= 0.0 && weights[i] > 0.0,
            "max_min: demands must be >= 0, weights > 0");
  }
}

}  // namespace

std::vector<double> max_min_allocate(double capacity,
                                     std::span<const double> demands) {
  const std::vector<double> weights(demands.size(), 1.0);
  return max_min_allocate_weighted(capacity, demands, weights);
}

std::vector<double> max_min_allocate_weighted(
    double capacity, std::span<const double> demands,
    std::span<const double> weights) {
  validate_inputs(capacity, demands, weights);
  const std::size_t n = demands.size();
  std::vector<double> alloc(n, 0.0);
  if (n == 0) return alloc;

  // Iteratively freeze consumers whose demand is below their fair share
  // and redistribute; terminates in <= n rounds. The rounds walk a
  // shrinking index list compacted in ascending order, so every sum and
  // subtraction happens in exactly the sequence the original all-index
  // scan used -- the allocations are bit-identical, only the dead work
  // on already-frozen entries is gone.
  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  std::vector<std::size_t> still;
  still.reserve(n);
  double remaining = capacity;
  for (std::size_t round = 0; round < n; ++round) {
    double active_weight = 0.0;
    for (const std::size_t i : active) active_weight += weights[i];
    if (active_weight <= 0.0 || remaining <= 0.0) break;

    const double level = remaining / active_weight;  // per unit weight
    bool froze_any = false;
    still.clear();
    for (const std::size_t i : active) {
      if (demands[i] <= level * weights[i]) {
        alloc[i] = demands[i];
        remaining -= demands[i];
        froze_any = true;
      } else {
        still.push_back(i);
      }
    }
    if (!froze_any) {
      // Everyone still active is saturated: split the remainder by weight.
      for (const std::size_t i : active) alloc[i] = level * weights[i];
      remaining = 0.0;
      break;
    }
    active.swap(still);
    if (active.empty()) break;
  }
  return alloc;
}

void max_min_allocate_into(double capacity, std::span<const double> demands,
                           std::span<double> alloc, MaxMinScratch& scratch) {
  require(capacity >= 0.0, "max_min: negative capacity");
  require(alloc.size() == demands.size(), "max_min: size mismatch");
  const std::size_t n = demands.size();
  for (std::size_t i = 0; i < n; ++i) {
    require(demands[i] >= 0.0, "max_min: demands must be >= 0, weights > 0");
    alloc[i] = 0.0;
  }
  if (n == 0) return;

  // Unweighted specialization of the loop above: a weight of 1.0
  // multiplies exactly and a sequential sum of 1.0s is the exact
  // (double-representable) count, so comparing against `level` and
  // dividing by the count reproduces the weighted solver bit-for-bit.
  scratch.active.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.active[i] = i;
  scratch.next.clear();
  double remaining = capacity;
  for (std::size_t round = 0; round < n; ++round) {
    if (scratch.active.empty() || remaining <= 0.0) break;
    const double level =
        remaining / static_cast<double>(scratch.active.size());
    bool froze_any = false;
    scratch.next.clear();
    for (const std::size_t i : scratch.active) {
      if (demands[i] <= level) {
        alloc[i] = demands[i];
        remaining -= demands[i];
        froze_any = true;
      } else {
        scratch.next.push_back(i);
      }
    }
    if (!froze_any) {
      for (const std::size_t i : scratch.active) alloc[i] = level;
      remaining = 0.0;
      break;
    }
    scratch.active.swap(scratch.next);
  }
}

}  // namespace hpas::sim
