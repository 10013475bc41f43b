// Tests for the slice-by-8 CRC-32 (common/crc32.hpp): the standard check
// value, agreement with a byte-at-a-time reference at every length and
// alignment, and chunked updates equal to the one-shot digest.
#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hpas {
namespace {

/// Bit-serial CRC-32 (reflected 0xEDB88320): the definition, no tables.
std::uint32_t reference_crc32(const unsigned char* p, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  std::uint32_t x = 0x12345678u;
  for (unsigned char& b : bytes) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(x >> 24);
  }
  return bytes;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  const std::vector<unsigned char> bytes = pseudo_random_bytes(300 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const unsigned char* p = bytes.data() + offset;
      ASSERT_EQ(crc32(p, len), reference_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, ChunkedUpdatesEqualOneShot) {
  const std::vector<unsigned char> bytes = pseudo_random_bytes(5000);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, reference_crc32(bytes.data(), bytes.size()));
  for (const std::size_t chunk : {1u, 3u, 7u, 8u, 9u, 64u, 884u, 4999u}) {
    std::uint32_t state = crc32_init();
    for (std::size_t off = 0; off < bytes.size(); off += chunk) {
      const std::size_t n = std::min(chunk, bytes.size() - off);
      state = crc32_update(state, bytes.data() + off, n);
    }
    EXPECT_EQ(crc32_final(state), whole) << "chunk " << chunk;
  }
}

}  // namespace
}  // namespace hpas
