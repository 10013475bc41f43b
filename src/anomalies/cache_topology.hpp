// Detection of the host's cache hierarchy.
//
// cachecopy sizes its arrays at "half the size of the L1, L2 or L3 caches"
// (paper Sec. 3.2), so it needs the actual cache sizes. We read them from
// sysfs (/sys/devices/system/cpu/cpu0/cache); when sysfs is unavailable
// (containers, non-Linux) we fall back to the Haswell Xeon E5-2698 v3
// sizes of the paper's Voltrino system.
#pragma once

#include <cstdint>
#include <string>

namespace hpas::anomalies {

enum class CacheLevel { kL1 = 1, kL2 = 2, kL3 = 3 };

/// Parses "L1"/"l1"/"1" etc.; throws ConfigError on anything else.
CacheLevel parse_cache_level(const std::string& text);

struct CacheTopology {
  std::uint64_t l1_bytes = 32ULL * 1024;          ///< L1d, per core
  std::uint64_t l2_bytes = 256ULL * 1024;         ///< per core
  std::uint64_t l3_bytes = 40ULL * 1024 * 1024;   ///< shared per socket
  bool detected = false;  ///< true when sysfs provided the values

  std::uint64_t level_bytes(CacheLevel level) const;
};

/// Reads the topology from `sysfs_cpu_cache_dir` (default: cpu0's cache
/// directory). Missing/garbled entries fall back to defaults; never throws.
CacheTopology detect_cache_topology(
    const std::string& sysfs_cpu_cache_dir =
        "/sys/devices/system/cpu/cpu0/cache");

}  // namespace hpas::anomalies
