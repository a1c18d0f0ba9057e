#pragma once
/// \file reliable.hpp
/// \brief Internal channel sets: one collective's persistent point-to-point
/// channels, plain or reliably wrapped (Options::reliability).
///
/// A collective *declares* its persistent channels on a `ChannelSet` at
/// bind time (`send` / `recv`) and then drives them with `start` and
/// `finish` once per collective start/wait.  The set decides per channel
/// whether to wrap it: only with reliability on, a non-empty payload and a
/// pair that crosses the network — zero-byte and intra-node messages are
/// never dropped.  The rule is symmetric in the pair, so both endpoints
/// agree without communicating.  A wrapped channel runs a stop-and-wait
/// protocol:
///
///   * every data message carries an 8-byte header (a 32-bit per-channel
///     sequence number) in front of the payload, staged in a buffer owned
///     by the set;
///   * the receiver consumes the expected sequence (discarding stale
///     retransmit debris), copies the payload into the declared span, and
///     posts an 8-byte *control* acknowledgement — which a FaultPlan never
///     drops, so the protocol terminates;
///   * the sender awaits the ack with a virtual-time timeout
///     (Context::wait_until) and retransmits, doubling the timeout each
///     time, giving up with a SimError after 16 retransmits.
///
/// `finish` completes the plain requests first and then multiplexes every
/// open wrapped channel instead of finishing them one by one.  Sequential
/// finishing deadlocks: a rank blocked receiving a dropped message never
/// reaches its own sends' retransmit timers, and such waits can cycle
/// across ranks (A awaits B's retransmit, B awaits C's, C awaits A's).
/// The driver polls all channels for committed messages, and when nothing
/// is consumable parks on the earliest retransmit deadline this rank owes
/// — so every dropped message's retransmission is armed the moment its
/// sender goes idle, regardless of what else the rank still has open.  For
/// every open receive the matching send on the peer rank is still open too
/// (no ack without consumption), so globally some rank always holds a
/// timer: no deadlock.
///
/// Zero-allocation: stage buffers and requests are sized at declaration;
/// start and finish perform no allocation (coroutine frames come from the
/// pooled frame allocator), so the steady-state guarantee holds with
/// reliability enabled (EngineAlloc suite).
///
/// Not part of the mpix API.

#include <memory>
#include <span>
#include <vector>

#include "mpix/neighbor.hpp"
#include "simmpi/engine.hpp"

namespace mpix::impl {

/// Validate reliability knobs, naming field and value in the SimError.
void validate_reliability(const Reliability& rel);

/// The persistent channels of one collective (or of one phase of it).
class ChannelSet {
 public:
  ChannelSet();
  /// Channels are declared on `comm`; wrapped ones acknowledge on
  /// `ack_tag`, which the collective mints only when `rel.enabled`.
  ChannelSet(const simmpi::Comm& comm, const Reliability& rel, int ack_tag);
  ChannelSet(ChannelSet&&) noexcept;
  ChannelSet& operator=(ChannelSet&&) noexcept;
  ~ChannelSet();

  /// Size the plain request lists for up to this many channels.
  void reserve(std::size_t sends, std::size_t recvs);
  /// Declare a send of `payload`, whose *current* bytes go out at each
  /// start().
  void send(std::span<const std::byte> payload, int peer, int tag);
  /// Declare a receive into `out`.
  void recv(std::span<std::byte> out, int peer, int tag);

  /// Post every channel: plain sends, wrapped sends, plain receives, then
  /// wrapped receives, each in declaration order.
  void start(simmpi::Context& ctx);
  /// Complete every channel: the plain requests in declaration order (sends
  /// first; send waits never suspend), then the multiplexing driver over
  /// the wrapped ones.
  simmpi::Task<> finish(simmpi::Context& ctx);

 private:
  struct Wrapped;  // the stop-and-wait channels, defined in reliable.cpp
  /// The wrapped lists if a channel to `peer` moving `bytes` payload bytes
  /// is wrapped (the rule of the file brief), else null.
  Wrapped* wrap(int peer, std::size_t bytes);

  simmpi::Comm comm_;
  Reliability rel_;
  int ack_tag_ = -1;
  std::vector<simmpi::Request> sends_, recvs_;
  std::unique_ptr<Wrapped> wrapped_;  ///< null until a channel is wrapped
};

}  // namespace mpix::impl
