// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), header-only.
//
// Frames every journal, spool and dataset-shard record, digests sweep
// outputs for --resume validation, and runs three passes over every byte
// of a dataset in its finish() read-back. Slice-by-8: eight constexpr
// tables let one step fold eight input bytes, which runs several times
// faster than the byte-at-a-time loop on large buffers. Bytes are read
// one at a time and assembled arithmetically, so the code needs no
// particular endianness or alignment and uses no intrinsics. The digests
// equal the byte-wise definition's, so files written by earlier builds
// still validate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace hpas {

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte-wise table; tables[k][b] is the CRC
/// state contribution of byte b followed by k zero bytes.
inline constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

}  // namespace detail

/// Incremental update: feed `crc32_init()` (or a previous return value)
/// plus the next chunk; finish with `crc32_final()`.
inline constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

inline std::uint32_t crc32_update(std::uint32_t state, const void* data,
                                  std::size_t n) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo =
        state ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
                 std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    state = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  return state;
}

inline constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

/// One-shot CRC-32 of a byte string.
inline std::uint32_t crc32(std::string_view bytes) {
  return crc32_final(crc32_update(crc32_init(), bytes.data(), bytes.size()));
}

/// One-shot CRC-32 of a raw buffer.
inline std::uint32_t crc32(const void* data, std::size_t n) {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

}  // namespace hpas
