#pragma once
/// \file hash.hpp
/// \brief The repo's two hash recipes: canonical byte-wise FNV-1a for the
/// in-process plan keys and fingerprints, and the SplitMix64 finalizer
/// behind every counter-mode draw (fault drops, pattern generation,
/// payload bytes).
///
/// One definition of each, so users cannot drift apart.  No FNV value is
/// persisted: keys and fingerprints live only as long as the process that
/// computed them.

#include <cstddef>
#include <cstdint>

namespace util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over a byte buffer, continuing from `h` (chainable).
inline std::uint64_t fnv1a(const unsigned char* data, std::size_t n,
                           std::uint64_t h = kFnvOffsetBasis) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over the 8 little-endian bytes of `v`, continuing from `h`.
inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= (v >> (8 * b)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

/// SplitMix64 finalizer: the standard 64-bit avalanche.  Stateless, so a
/// draw addressed by its counter is reproducible in any order.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace util
