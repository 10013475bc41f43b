// Little-endian field encoding for every binary format HPAS writes
// (journal records, dataset shards, binary traces), so no file depends
// on the host's byte order. Readers expect the caller to bounds-check.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace hpas {

template <typename T>
inline void put_le(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<char>(static_cast<unsigned char>(v >> (8 * i))));
}

/// put_le into bytes the caller has already sized: one pass, no growth
/// checks, for encoding a whole record at once.
template <typename T>
inline void store_le(unsigned char* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<unsigned char>(v >> (8 * i));
}

template <typename T>
inline T get_le(const unsigned char* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  return v;
}

inline void put_u8(std::string& out, std::uint8_t v) { put_le(out, v); }
inline void put_u16(std::string& out, std::uint16_t v) { put_le(out, v); }
inline void put_u32(std::string& out, std::uint32_t v) { put_le(out, v); }
inline void put_u64(std::string& out, std::uint64_t v) { put_le(out, v); }
inline void put_f64(std::string& out, double v) {
  put_le(out, std::bit_cast<std::uint64_t>(v));
}

inline std::uint32_t get_u32(const unsigned char* p) {
  return get_le<std::uint32_t>(p);
}
inline std::uint64_t get_u64(const unsigned char* p) {
  return get_le<std::uint64_t>(p);
}
inline double get_f64(const unsigned char* p) {
  return std::bit_cast<double>(get_u64(p));
}

}  // namespace hpas
