#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

namespace wavepim {

/// Parses a count flag or variable: decimal digits only, with a value
/// that fits in 32 bits. Returns false on anything else (signs, junk,
/// overflow, the empty string), leaving `out` untouched.
inline bool parse_u32(const char* s, std::uint32_t& out) {
  const char* end = s + std::strlen(s);
  std::uint32_t value = 0;
  const auto [last, error] = std::from_chars(s, end, value);
  if (error != std::errc{} || last != end) {
    return false;
  }
  out = value;
  return true;
}

/// Parses a real-valued flag: one whole decimal or scientific number that
/// is finite (no "inf", "nan" or overflow to infinity). Returns false on
/// anything else, leaving `out` untouched.
inline bool parse_finite_double(const char* s, double& out) {
  const char* end = s + std::strlen(s);
  double value = 0.0;
  const auto [last, error] = std::from_chars(s, end, value);
  if (error != std::errc{} || last != end || !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace wavepim
