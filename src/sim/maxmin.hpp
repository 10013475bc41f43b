// Max-min fair allocation primitives.
//
// Contention in every HPAS resource model reduces to one question: given a
// capacity and a set of demands (some finite, some effectively greedy),
// what does each consumer get under max-min fairness? This is the
// water-filling algorithm; the multi-link variant (progressive filling
// over a network of links) lives in network.cpp on top of this.
#pragma once

#include <span>
#include <vector>

namespace hpas::sim {

/// Single-resource max-min fairness (water-filling).
///
/// Returns per-demand allocations such that (1) alloc[i] <= demand[i],
/// (2) sum(alloc) <= capacity, (3) no allocation can be raised without
/// lowering a smaller one. Demands may be infinite (greedy consumers).
/// Weighted variant: shares are proportional to weight while unsaturated.
std::vector<double> max_min_allocate(double capacity,
                                     std::span<const double> demands);

std::vector<double> max_min_allocate_weighted(double capacity,
                                              std::span<const double> demands,
                                              std::span<const double> weights);

/// Reusable workspace for the allocation-free variant below. Holding one
/// of these per caller (Node, Filesystem) keeps the per-event rate
/// recompute free of heap allocation.
struct MaxMinScratch {
  std::vector<std::size_t> active;
  std::vector<std::size_t> next;
};

/// Unweighted water-filling into a caller-provided output span (resized
/// state must already be demands.size(); contents are overwritten). The
/// arithmetic — including the order of every sum and subtraction — is
/// bit-identical to max_min_allocate: weights of 1.0 multiply exactly and
/// a sequential sum of 1.0s is the exact consumer count.
void max_min_allocate_into(double capacity, std::span<const double> demands,
                           std::span<double> alloc, MaxMinScratch& scratch);

}  // namespace hpas::sim
