#pragma once

#include <bit>
#include <cstdint>
#include <span>

namespace wavepim {

/// The bits a float contributes to a bit-identity check: its own, except
/// that every NaN counts as the canonical quiet NaN. IEEE addition of two
/// NaNs may return either payload, and compilers pick the operand order,
/// so NaN payloads differ between the word executors and hosts; the
/// contract is that a NaN stays a NaN.
constexpr std::uint32_t canonical_bits(float f) {
  return f != f ? 0x7FC00000u : std::bit_cast<std::uint32_t>(f);
}

/// FNV-1a over the canonical bits of `words`, low byte first (the byte
/// order of the words in memory on the little-endian hosts built for).
inline std::uint64_t fnv1a_floats(std::span<const float> words) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const float f : words) {
    const std::uint32_t bits = canonical_bits(f);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

}  // namespace wavepim
