#include "common/units.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace hpas {
namespace {

// Parses the leading numeric part of `text`, returns it and leaves the
// suffix in `rest`. Accepts integers and simple decimals.
double parse_number_prefix(std::string_view text, std::string_view& rest) {
  if (text.empty()) throw ConfigError("empty numeric value");
  std::size_t i = 0;
  bool seen_digit = false, seen_dot = false;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      seen_digit = true;
      ++i;
    } else if (c == '.' && !seen_dot) {
      seen_dot = true;
      ++i;
    } else {
      break;
    }
  }
  if (!seen_digit)
    throw ConfigError("expected a number, got '" + std::string(text) + "'");
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + i, value);
  if (ec != std::errc() || ptr != text.data() + i)
    throw ConfigError("malformed number '" + std::string(text) + "'");
  rest = text.substr(i);
  return value;
}

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace

std::uint64_t parse_bytes(std::string_view text) {
  std::string_view rest;
  const double value = parse_number_prefix(text, rest);
  const std::string suffix = lower(rest);
  double mult = 1.0;
  if (suffix.empty() || suffix == "b") {
    mult = 1.0;
  } else if (suffix == "k" || suffix == "kb" || suffix == "kib") {
    mult = static_cast<double>(kKiB);
  } else if (suffix == "m" || suffix == "mb" || suffix == "mib") {
    mult = static_cast<double>(kMiB);
  } else if (suffix == "g" || suffix == "gb" || suffix == "gib") {
    mult = static_cast<double>(kGiB);
  } else {
    throw ConfigError("unknown size suffix '" + std::string(rest) + "' in '" +
                      std::string(text) + "'");
  }
  const double bytes = value * mult;
  if (bytes < 0 || bytes > 9.2e18)
    throw ConfigError("size out of range: '" + std::string(text) + "'");
  return static_cast<std::uint64_t>(bytes);
}

double parse_percent(std::string_view text) {
  std::string_view rest;
  const double value = parse_number_prefix(text, rest);
  if (!(rest.empty() || rest == "%"))
    throw ConfigError("malformed percentage '" + std::string(text) + "'");
  if (value < 0.0 || value > 100.0)
    throw ConfigError("percentage out of [0,100]: '" + std::string(text) + "'");
  return value;
}

double parse_double(std::string_view text) {
  std::string_view rest;
  const double value = parse_number_prefix(text, rest);
  if (!rest.empty())
    throw ConfigError("trailing characters in number '" + std::string(text) + "'");
  return value;
}

std::uint64_t parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size())
    throw ConfigError("malformed integer '" + std::string(text) + "'");
  return value;
}

double parse_duration_seconds(std::string_view text) {
  std::string_view rest;
  const double value = parse_number_prefix(text, rest);
  const std::string suffix = lower(rest);
  if (suffix.empty() || suffix == "s") return value;
  if (suffix == "ms") return value / 1000.0;
  if (suffix == "m" || suffix == "min") return value * 60.0;
  if (suffix == "h") return value * 3600.0;
  throw ConfigError("unknown duration suffix '" + std::string(rest) + "' in '" +
                    std::string(text) + "'");
}

std::string format_seconds(double seconds) {
  char buf[32];
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2fus", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof buf, "%.2fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fs", seconds);
  }
  return buf;
}

}  // namespace hpas
