// Byte-size / percentage / duration parsing, and duration formatting.
//
// The native anomaly generators take human-shaped CLI values ("35M",
// "100MB", "2.5G", "80%"), mirroring the knobs in Table 1 of the paper
// (buffer size, message size, file size, utilization%, rate).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hpas {

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// Parses a byte size such as "64", "64K", "35M", "2G", "1.5G", "100MB",
/// "32KiB". Suffixes are case-insensitive; K/M/G (optionally followed by
/// "B" or "iB") are binary multiples, matching the conventions of the
/// original HPAS tool. Throws ConfigError on malformed input.
std::uint64_t parse_bytes(std::string_view text);

/// Parses a percentage: "80", "80%", "12.5%". Returns the fraction in
/// [0, 100]; throws ConfigError when out of range or malformed.
double parse_percent(std::string_view text);

/// Parses a plain non-negative double ("3", "0.25"). Throws on garbage.
double parse_double(std::string_view text);

/// Parses a non-negative integer. Throws on garbage or overflow.
std::uint64_t parse_u64(std::string_view text);

/// Parses a duration: "30" (seconds), "30s", "5m", "2h", "250ms".
/// Returns seconds. Throws ConfigError on malformed input.
double parse_duration_seconds(std::string_view text);

/// Formats seconds compactly: 0.0042 -> "4.20ms", 95 -> "95.0s".
std::string format_seconds(double seconds);

}  // namespace hpas
