#pragma once
/// \file hash.hpp
/// \brief Canonical byte-wise FNV-1a for the in-process plan keys and
/// workload fingerprints.
///
/// One definition of the constants (offset basis 0xcbf29ce484222325,
/// prime 0x100000001b3) and of the word mix, so users cannot drift apart.
/// No hash value is persisted: keys and fingerprints live only as long as
/// the process that computed them.

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

}  // namespace util
