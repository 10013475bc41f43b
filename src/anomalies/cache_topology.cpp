#include "anomalies/cache_topology.hpp"

#include <cctype>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/units.hpp"

namespace hpas::anomalies {
namespace {

std::string read_first_line(const std::filesystem::path& p) {
  std::ifstream in(p);
  std::string line;
  if (in) std::getline(in, line);
  return line;
}

}  // namespace

CacheLevel parse_cache_level(const std::string& text) {
  std::string t;
  for (const char c : text)
    t += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (t == "l1" || t == "1") return CacheLevel::kL1;
  if (t == "l2" || t == "2") return CacheLevel::kL2;
  if (t == "l3" || t == "3") return CacheLevel::kL3;
  throw ConfigError("unknown cache level '" + text + "' (expected L1/L2/L3)");
}

std::uint64_t CacheTopology::level_bytes(CacheLevel level) const {
  switch (level) {
    case CacheLevel::kL1: return l1_bytes;
    case CacheLevel::kL2: return l2_bytes;
    case CacheLevel::kL3: return l3_bytes;
  }
  return l3_bytes;
}

CacheTopology detect_cache_topology(const std::string& sysfs_cpu_cache_dir) {
  CacheTopology topo;
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(sysfs_cpu_cache_dir, ec)) return topo;

  bool any = false;
  for (const auto& entry : fs::directory_iterator(sysfs_cpu_cache_dir, ec)) {
    if (ec) break;
    const auto name = entry.path().filename().string();
    if (name.rfind("index", 0) != 0) continue;
    const std::string level = read_first_line(entry.path() / "level");
    const std::string type = read_first_line(entry.path() / "type");
    const std::string size = read_first_line(entry.path() / "size");
    if (level.empty() || size.empty()) continue;
    if (type == "Instruction") continue;  // we care about data/unified caches
    std::uint64_t bytes = 0;
    try {
      bytes = parse_bytes(size);
    } catch (const ConfigError&) {
      continue;
    }
    if (bytes == 0) continue;
    if (level == "1") topo.l1_bytes = bytes;
    else if (level == "2") topo.l2_bytes = bytes;
    else if (level == "3") topo.l3_bytes = bytes;
    else continue;
    any = true;
  }
  topo.detected = any;
  return topo;
}

}  // namespace hpas::anomalies
