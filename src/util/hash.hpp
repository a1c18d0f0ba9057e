#pragma once
/// \file hash.hpp
/// \brief The repo's hash building blocks: the FNV-1a basis and prime
/// behind plan binding fingerprints (mpix/detail.cpp), and the SplitMix64
/// finalizer behind every counter-mode draw (fault drops, pattern
/// generation, payload bytes).
///
/// One definition of each, so users cannot drift apart.  No hash value is
/// persisted: fingerprints live only as long as the process that computed
/// them.

#include <cstdint>

namespace util {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// SplitMix64 finalizer: the standard 64-bit avalanche.  Stateless, so a
/// draw addressed by its counter is reproducible in any order.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace util
