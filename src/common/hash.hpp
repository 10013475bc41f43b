// The one field-combining hash behind scenario identity: journal key
// hashes, search-space points, dataset plan digests and shard checkpoint
// keys. Every value lands in an on-disk format, so it must never change.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "common/crc32.hpp"

namespace hpas {

/// splitmix64 finalizer as the combining step: full avalanche per field,
/// so adjacent grid points (intensity 1.0 vs 1.5) land far apart.
inline void mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
}

inline void mix_string(std::uint64_t& h, std::string_view s) {
  mix(h, s.size());
  mix(h, crc32(s));
}

inline void mix_double(std::uint64_t& h, double v) {
  mix(h, std::bit_cast<std::uint64_t>(v));
}

}  // namespace hpas
