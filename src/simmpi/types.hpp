#pragma once
/// \file types.hpp
/// \brief Fundamental types shared across the simulated-MPI substrate.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace simmpi {

/// Locality tier of a message, ordered from cheapest to most expensive.
///
/// The tiers mirror the machine hierarchy of the paper (Fig. 1): two ranks
/// may share a core (self), a NUMA region / CPU socket (region), a node
/// (node), or only the interconnect (network).
enum class Locality : int {
  self = 0,     ///< source == destination rank
  region = 1,   ///< same NUMA region / CPU socket (shared cache)
  node = 2,     ///< same node, different region (through main memory)
  network = 3,  ///< different nodes (through the interconnect)
};

/// Number of distinct locality tiers.
inline constexpr int kNumLocalities = 4;

/// \return short human-readable name for a locality tier.
inline const char* to_string(Locality l) {
  switch (l) {
    case Locality::self: return "self";
    case Locality::region: return "region";
    case Locality::node: return "node";
    case Locality::network: return "network";
  }
  return "?";
}

/// Error thrown by the simulator on misuse (deadlock, bad arguments,
/// mismatched message sizes, ...).  The simulator is a correctness tool, so
/// it fails loudly instead of corrupting a run.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

}  // namespace simmpi
