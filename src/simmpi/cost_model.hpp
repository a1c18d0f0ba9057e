#pragma once
/// \file cost_model.hpp
/// \brief Locality-aware communication cost model for the simulator.
///
/// The model follows the lineage of models cited by the paper:
///  * the *postal* model (alpha + beta * bytes) per message,
///  * the three-regime extension (short / eager / rendezvous protocols have
///    distinct latency and bandwidth terms),
///  * *locality awareness*: each tier (self / region / node / network) has
///    its own regime parameters (Bienz, Gropp, Olson, EuroMPI'18),
///  * the *max-rate* injection limit: each node's NIC injects at a finite
///    rate, so many simultaneous senders on one node queue behind each other
///    (Gropp, Olson, Samfass, EuroMPI'16),
///  * a receiver-side *queue search* term proportional to the number of
///    pending unexpected messages, which dominates the coarse AMG levels.
///
/// Default parameters are calibrated to published Lassen (IBM Power9 +
/// EDR InfiniBand, Spectrum MPI) measurements: intra-CPU messages are
/// cheapest; inter-CPU (cross-NUMA) messages are *more* expensive per byte
/// than the network for large sizes; network messages pay the highest
/// latency.  Absolute values are order-of-magnitude; the reproduction
/// compares shapes, not machine-exact seconds.

#include <cstddef>
#include <vector>

#include "simmpi/types.hpp"

namespace simmpi {

/// Postal parameters of one protocol regime in one locality tier.
struct Regime {
  double alpha = 0.0;  ///< latency, seconds
  double beta = 0.0;   ///< inverse bandwidth, seconds per byte
};

/// Parameters for a single locality tier with three protocol regimes.
struct TierParams {
  Regime short_;           ///< very small messages (fits in packet)
  Regime eager;            ///< eager protocol
  Regime rend;             ///< rendezvous protocol (extra handshake latency)
  std::size_t short_max = 512;   ///< largest "short" payload, bytes
  std::size_t eager_max = 8192;  ///< largest eager payload, bytes

  /// \return regime applicable to a payload of `bytes`.
  const Regime& regime(std::size_t bytes) const {
    if (bytes <= short_max) return short_;
    if (bytes <= eager_max) return eager;
    return rend;
  }
};

/// Full cost-model parameter set.
struct CostParams {
  TierParams tier[kNumLocalities];

  double send_overhead = 2.0e-7;  ///< CPU time to post one send, seconds
  double recv_overhead = 2.0e-7;  ///< CPU time to complete one receive
  double queue_search = 3.0e-8;   ///< per pending message scanned at match

  double nic_rate = 12.5e9;       ///< per-node injection bandwidth, bytes/s
  bool use_injection_cap = true;  ///< model the NIC as a queued resource

  /// Per-node *ejection* (receive-side) bandwidth, bytes/s.  With
  /// `use_ejection_cap` set, every network message bound for a node queues
  /// behind the node's NIC on arrival, so N-to-1 incast serializes at the
  /// destination even when the senders sit on N distinct nodes.  Off by
  /// default: symmetric workloads bottleneck identically at either end, so
  /// the paper-figure sweeps are unchanged unless a scenario opts in.
  double nic_eject_rate = 12.5e9;
  bool use_ejection_cap = false;  ///< model receiver-side endpoint congestion

  /// Shared switch-link contention (fat-tree core; the tree shape lives
  /// in MachineConfig::switch_levels).  `link_rate` is the full-bisection
  /// bandwidth of one up/down link; tier i — the links between level-i
  /// switches and their parents — serves at link_rate /
  /// switch_levels[i].taper.  Every message additionally occupies each
  /// crossed link for `link_msg_bytes` of framing (packet headers,
  /// rendezvous control), so many small messages waste a tapered link
  /// faster than few aggregated ones.  Off by default: flat-core sweeps
  /// are unchanged unless a scenario opts in.
  double link_rate = 12.5e9;      ///< up/down link bandwidth, bytes/s
  double link_msg_bytes = 128.0;  ///< per-message framing charged per link
  bool use_link_cap = false;      ///< model shared up/down links as queues

  /// \return Lassen-like defaults (see file comment).
  static CostParams lassen();
  /// \return a flat model where every tier costs the same (for ablation:
  /// shows that locality-aware aggregation only pays off when tiers differ).
  static CostParams flat(double alpha = 2.0e-6, double beta = 8.0e-11);
};

/// Evaluates message costs.  Stateless; the engine owns the queued NIC state.
class CostModel {
 public:
  explicit CostModel(CostParams p) : p_(p) {}

  const CostParams& params() const { return p_; }

  /// Wire time (latency + serialization) for one message.
  double transfer_time(Locality loc, std::size_t bytes) const {
    const Regime& r = p_.tier[static_cast<int>(loc)].regime(bytes);
    return r.alpha + static_cast<double>(bytes) * r.beta;
  }

  /// Time the message occupies the sending node's NIC (network tier only).
  double nic_occupancy(std::size_t bytes) const {
    return p_.use_injection_cap ? static_cast<double>(bytes) / p_.nic_rate
                                : 0.0;
  }

  /// Time the message occupies the *receiving* node's NIC (network tier
  /// only).  Zero unless endpoint congestion is enabled.
  double eject_occupancy(std::size_t bytes) const {
    return p_.use_ejection_cap ? static_cast<double>(bytes) / p_.nic_eject_rate
                               : 0.0;
  }

  /// Effective bandwidth of one up/down link whose level taper is
  /// `taper`, bytes/s (see CostParams::link_rate).
  double link_rate(double taper) const { return p_.link_rate / taper; }

  /// Time one message occupies one crossed up/down link serving at
  /// `rate` (store-and-forward, framing included).
  double link_occupancy(std::size_t bytes, double rate) const {
    return (static_cast<double>(bytes) + p_.link_msg_bytes) / rate;
  }

  double send_overhead() const { return p_.send_overhead; }
  double recv_overhead(int pending_msgs) const {
    return p_.recv_overhead + p_.queue_search * pending_msgs;
  }

 private:
  CostParams p_;
};

}  // namespace simmpi
