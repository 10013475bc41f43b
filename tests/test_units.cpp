// Tests for size/percent/duration parsing (common/units.hpp).
#include "common/units.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/error.hpp"

namespace hpas {
namespace {

TEST(ParseBytes, PlainNumbers) {
  EXPECT_EQ(parse_bytes("0"), 0u);
  EXPECT_EQ(parse_bytes("1"), 1u);
  EXPECT_EQ(parse_bytes("4096"), 4096u);
}

TEST(ParseBytes, BinarySuffixes) {
  EXPECT_EQ(parse_bytes("1K"), 1024u);
  EXPECT_EQ(parse_bytes("64k"), 64u * 1024);
  EXPECT_EQ(parse_bytes("35M"), 35u * 1024 * 1024);
  EXPECT_EQ(parse_bytes("100MB"), 100u * 1024 * 1024);
  EXPECT_EQ(parse_bytes("32KiB"), 32u * 1024);
  EXPECT_EQ(parse_bytes("2G"), 2ULL * 1024 * 1024 * 1024);
  EXPECT_EQ(parse_bytes("2GiB"), 2ULL * 1024 * 1024 * 1024);
}

TEST(ParseBytes, FractionalValues) {
  EXPECT_EQ(parse_bytes("1.5K"), 1536u);
  EXPECT_EQ(parse_bytes("0.5M"), 512u * 1024);
}

TEST(ParseBytes, RejectsGarbage) {
  EXPECT_THROW(parse_bytes(""), ConfigError);
  EXPECT_THROW(parse_bytes("abc"), ConfigError);
  EXPECT_THROW(parse_bytes("12X"), ConfigError);
  EXPECT_THROW(parse_bytes("12 K"), ConfigError);
  EXPECT_THROW(parse_bytes("-5"), ConfigError);
}

TEST(ParsePercent, AcceptsWithAndWithoutSign) {
  EXPECT_DOUBLE_EQ(parse_percent("80"), 80.0);
  EXPECT_DOUBLE_EQ(parse_percent("80%"), 80.0);
  EXPECT_DOUBLE_EQ(parse_percent("12.5%"), 12.5);
  EXPECT_DOUBLE_EQ(parse_percent("0"), 0.0);
  EXPECT_DOUBLE_EQ(parse_percent("100"), 100.0);
}

TEST(ParsePercent, RejectsOutOfRange) {
  EXPECT_THROW(parse_percent("101"), ConfigError);
  EXPECT_THROW(parse_percent("100.5%"), ConfigError);
  EXPECT_THROW(parse_percent("80!"), ConfigError);
}

TEST(ParseDuration, Suffixes) {
  EXPECT_DOUBLE_EQ(parse_duration_seconds("30"), 30.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("30s"), 30.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("250ms"), 0.25);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("5m"), 300.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("2h"), 7200.0);
  EXPECT_DOUBLE_EQ(parse_duration_seconds("0.5s"), 0.5);
}

TEST(ParseDuration, RejectsUnknownSuffix) {
  EXPECT_THROW(parse_duration_seconds("10d"), ConfigError);
  EXPECT_THROW(parse_duration_seconds(""), ConfigError);
}

TEST(ParseU64, Basics) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), ~0ULL);
  EXPECT_THROW(parse_u64("-1"), ConfigError);
  EXPECT_THROW(parse_u64("1.5"), ConfigError);
  EXPECT_THROW(parse_u64(""), ConfigError);
}

TEST(ParseDouble, Basics) {
  EXPECT_DOUBLE_EQ(parse_double("2.5"), 2.5);
  EXPECT_THROW(parse_double("2.5x"), ConfigError);
}

TEST(FormatSeconds, Ranges) {
  EXPECT_EQ(format_seconds(0.0000042), "4.20us");
  EXPECT_EQ(format_seconds(0.042), "42.00ms");
  EXPECT_EQ(format_seconds(95.0), "95.0s");
}

/// Round-trip property: a size written out in every binary unit that
/// divides it exactly (plain, K, KiB, KB, M, ..., G, ...) parses back to
/// the same byte count.
class BytesRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BytesRoundTrip, ParseFormatParse) {
  const std::uint64_t original = GetParam();
  EXPECT_EQ(parse_bytes(std::to_string(original)), original);
  const std::pair<std::uint64_t, const char*> units[] = {
      {kKiB, "K"}, {kMiB, "M"}, {kGiB, "G"}};
  for (const auto& [unit, letter] : units) {
    if (original % unit != 0) continue;
    const std::string count = std::to_string(original / unit);
    for (const char* tail : {"", "B", "iB"}) {
      const std::string text = count + letter + tail;
      EXPECT_EQ(parse_bytes(text), original) << text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BytesRoundTrip,
                         ::testing::Values(1, 100, 1024, 4096, 35 * kMiB,
                                           kGiB, 3 * kGiB + 5));

}  // namespace
}  // namespace hpas
