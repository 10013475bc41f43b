// CSV import/export for MetricStore, for offline analysis and plotting.
#pragma once

#include <iosfwd>
#include <string>

#include "metrics/store.hpp"

namespace hpas::metrics {

/// Writes a wide CSV: first column "timestamp", one column per metric
/// (full "metric::sampler" names), one row per collection epoch. All series
/// are expected to share timestamps (the collector guarantees this);
/// missing values are left empty, and of several samples a series has at
/// one timestamp the row shows the first. Numbers print as `os << v` does
/// with default flags (printf "%.6g").
void write_csv(std::ostream& os, const MetricStore& store);

}  // namespace hpas::metrics
