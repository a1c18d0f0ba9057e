#pragma once
/// \file fault.hpp
/// \brief Deterministic fault injection: declarative schedules of link
/// brownouts, NIC slowdowns, message drop/duplication and compute stalls.
///
/// A `FaultPlan` is a *seeded, declarative* schedule: a list of
/// `FaultSpec` events, each a time window plus a target (link tier, node,
/// or rank) and a magnitude.  Nothing about a plan is sampled at run time
/// from mutable state — probabilistic events (drop/duplication) are keyed
/// by counter-mode splitmix64 over (plan seed, channel key, per-channel
/// sequence number), so every fault decision is a pure function of the
/// schedule itself.  Control messages (Request::set_control: reliability
/// acks, collective scaffolding) are never dropped or duplicated, so a
/// reliable collective's retransmissions always terminate.  Combined with the engine rule that faults are charged
/// only in the single-threaded commit step (see Engine::deliver), the
/// faulted schedule is bit-identical at every sim width, exactly like the
/// fault-free one.
///
/// Everything is off by default: an engine without a plan (or with an
/// empty one) is byte-inert — it executes the identical instruction
/// sequence on the hot path and produces byte-identical series
/// (`tests/test_faults.cpp`, inertness proof).

#include <cstdint>
#include <limits>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/types.hpp"

namespace simmpi {

class Machine;

/// One fault event: a time window, a target, and a magnitude.  Windows are
/// half-open `[t_begin, t_end)` in *rank-local virtual time* — the clock
/// that `Engine::sync_reset` rewinds to zero, so a window re-applies to
/// every measurement epoch.  Which of `tier`/`node`/`rank` and
/// `severity`/`rate` is read depends on `kind`; the rest are ignored
/// (validation still range-checks whatever is set).
struct FaultSpec {
  enum class Kind {
    /// Scale the effective bandwidth of a shared switch link tier by
    /// `severity` for messages entering the link queue inside the window.
    /// Requires `CostParams::use_link_cap` and a switch hierarchy
    /// (`MachineConfig::switch_levels`); targets `tier` (-1 = every tier).
    link_brownout,
    /// Scale a node's NIC injection rate by `severity`: occupancy of
    /// messages injected inside the window divides by `severity`.
    /// Requires `CostParams::use_injection_cap`; targets `node`
    /// (-1 = every node).
    nic_slowdown,
    /// Drop network messages departing inside the window with
    /// probability `rate`, decided per message by the counter-mode hash.
    /// Targets the *source* `rank` (-1 = every rank).
    msg_drop,
    /// Deliver a duplicate copy of network messages departing inside the
    /// window with probability `rate`.  Targets the source `rank`
    /// (-1 = every rank).
    msg_dup,
    /// Stretch simulated local computation (Context::compute) charged
    /// inside the window by 1/severity.  Targets `rank` (-1 = every
    /// rank).
    compute_stall,
  };

  Kind kind = Kind::msg_drop;
  double t_begin = 0.0;
  double t_end = std::numeric_limits<double>::infinity();
  int tier = -1;  ///< link_brownout: link tier index, -1 = all tiers
  int node = -1;  ///< nic_slowdown: node index, -1 = all nodes
  int rank = -1;  ///< msg_drop/msg_dup/compute_stall: rank, -1 = all ranks
  /// Surviving fraction in (0, 1]: bandwidth multiplier for
  /// link_brownout / nic_slowdown, speed multiplier for compute_stall.
  double severity = 1.0;
  /// Per-message probability in [0, 1] for msg_drop / msg_dup.
  double rate = 0.0;
};

/// \return short human-readable name for a fault kind.
const char* to_string(FaultSpec::Kind k);

/// A seeded fault schedule.  Attach to an engine with
/// `Engine::set_fault_plan`; validation runs there against the engine's
/// machine.
struct FaultPlan {
  /// Seed of the counter-mode hash deciding drop/duplication.  Two plans
  /// differing only in seed drop *different* messages at the same rates.
  std::uint64_t seed = 0;
  std::vector<FaultSpec> events;

  bool empty() const { return events.empty(); }
};

/// Validate a plan against a machine, mirroring MachineConfig validation:
/// out-of-range rates/severities/targets and inverted or overlapping
/// same-kind-same-target windows throw SimError naming field and value.
void validate_fault_plan(const FaultPlan& plan, const Machine& machine);

/// Counter-mode uniform draw in [0, 1): splitmix64 over (seed, channel
/// key, sequence number).  A pure function — the foundation of the
/// width-determinism of probabilistic faults.
double fault_uniform(std::uint64_t seed, const ChannelKey& key,
                     std::uint64_t seq);

}  // namespace simmpi
