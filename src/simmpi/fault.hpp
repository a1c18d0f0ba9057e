#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection: message drops and link brownouts.
///
/// A `FaultPlan` is a *seeded, declarative* schedule: a list of
/// `FaultSpec` events, each a fault kind plus a magnitude, applying to
/// every message of the run.  Nothing about a plan is sampled at run time
/// from mutable state — drops are keyed by counter-mode splitmix64 over
/// (plan seed, channel key, per-channel sequence number), so every fault
/// decision is a pure function of the schedule itself.  Control messages
/// (Request::set_control: reliability acks, collective scaffolding) are
/// never dropped, so a reliable collective's retransmissions always
/// terminate.  Combined with the engine rule that faults are charged only
/// in the single-threaded commit step (see Engine::deliver), the faulted
/// schedule is bit-identical at every sim width, exactly like the
/// fault-free one.
///
/// Everything is off by default: an engine without a plan (or with an
/// empty one) is byte-inert — it executes the identical instruction
/// sequence on the hot path and produces byte-identical series
/// (`tests/test_faults.cpp`, inertness proof).

#include <cstdint>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/types.hpp"

namespace simmpi {

/// One fault event: a kind and a magnitude, applying to every message of
/// the run.  Which of `severity`/`rate` is read depends on `kind`; the
/// other is ignored.
struct FaultSpec {
  enum class Kind {
    /// Scale the effective bandwidth of every shared switch link tier by
    /// `severity`.  Requires `CostParams::use_link_cap` and a switch
    /// hierarchy (`MachineConfig::switch_levels`).
    link_brownout,
    /// Drop network messages with probability `rate`, decided per message
    /// by the counter-mode hash.
    msg_drop,
  };

  Kind kind = Kind::msg_drop;
  /// link_brownout: surviving bandwidth fraction in (0, 1].
  double severity = 1.0;
  /// msg_drop: per-message probability in [0, 1].
  double rate = 0.0;
};

/// \return short human-readable name for a fault kind.
const char* to_string(FaultSpec::Kind k);

/// A seeded fault schedule, at most one event per kind.  Attach to an
/// engine with `Engine::set_fault_plan`; validation runs there.
struct FaultPlan {
  /// Seed of the counter-mode hash deciding drops.  Two plans differing
  /// only in seed drop *different* messages at the same rate.
  std::uint64_t seed = 0;
  std::vector<FaultSpec> events;
};

/// Validate a plan, mirroring MachineConfig validation: an out-of-range
/// rate or severity, and a kind given more than once, throw SimError
/// naming field and value.
void validate_fault_plan(const FaultPlan& plan);

/// Counter-mode uniform draw in [0, 1): splitmix64 over (seed, channel
/// key, sequence number).  A pure function — the foundation of the
/// width-determinism of probabilistic faults.
double fault_uniform(std::uint64_t seed, const ChannelKey& key,
                     std::uint64_t seq);

}  // namespace simmpi
