#pragma once
/// \file comm.hpp
/// \brief Communicators, channels and (persistent) point-to-point requests.
///
/// The API deliberately mirrors MPI semantics (LLNL MPI tutorial / MPI 4.0):
/// nonblocking `isend`/`irecv`, persistent `send_init`/`recv_init` +
/// `start`/`wait`, FIFO matching per (communicator, source, destination,
/// tag) channel.  Wildcards (`MPI_ANY_SOURCE`/`MPI_ANY_TAG`) are not
/// supported — the neighborhood collective implementations never need them.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simmpi/types.hpp"
#include "util/arena.hpp"

namespace simmpi {

class Engine;
class Context;

/// Identifies one ordered message channel.
struct ChannelKey {
  std::uint32_t ctx = 0;  ///< communicator context id
  std::int32_t src = -1;  ///< global source rank
  std::int32_t dst = -1;  ///< global destination rank
  std::int32_t tag = -1;
  bool operator==(const ChannelKey&) const = default;
  /// Total order for diagnostics and containers (the order itself carries
  /// no meaning; only identity does).
  auto operator<=>(const ChannelKey&) const = default;
};

/// A message in flight: a view of payload bytes in the *sender's* rank
/// arena (see Engine::RankState), plus the modeled arrival time.  The
/// bytes stay valid until the receive completes and releases `chunk` back
/// to the arena (zero-size messages carry no bytes and no chunk).
struct Message {
  const std::byte* data = nullptr;
  std::size_t size = 0;
  util::Arena::Chunk* chunk = nullptr;
  double arrival = 0.0;
};

/// Shared, immutable membership data of a communicator.
struct CommData {
  std::uint32_t ctx_id = 0;
  std::vector<int> members;  ///< global rank of each local rank
};

/// Lightweight per-rank communicator handle (cheap to copy).
///
/// A `Comm` combines shared membership data with the calling rank's local
/// rank.  All peer arguments of its methods are *local* ranks within the
/// communicator, as in MPI.
class Comm {
 public:
  Comm() = default;
  Comm(Engine* eng, std::shared_ptr<const CommData> data, int local_rank)
      : eng_(eng), data_(std::move(data)), rank_(local_rank) {}

  bool valid() const { return data_ != nullptr; }
  int rank() const { return rank_; }
  int size() const { return static_cast<int>(data_->members.size()); }
  std::uint32_t id() const { return data_->ctx_id; }
  /// Translate a local rank to the global (world) rank.
  int global(int local) const { return data_->members[local]; }
  std::span<const int> members() const { return data_->members; }
  Engine& engine() const { return *eng_; }

  /// Locality tier between this rank and local rank `peer`.
  Locality locality_of(int peer) const;

 private:
  Engine* eng_ = nullptr;
  std::shared_ptr<const CommData> data_{};
  int rank_ = -1;
};

/// A point-to-point request (persistent or one-shot).
///
/// Lifecycle mirrors MPI persistent requests: build with `Request::send` /
/// `Request::recv` (equivalents of `MPI_Send_init` / `MPI_Recv_init`),
/// then repeatedly `start()` and `co_await ctx.wait(req)`.
/// The buffer span must stay valid for the lifetime of the request.  A
/// receive is always sized by its caller — a bound span or, in place, a
/// declared byte count — so a request owns no payload storage (the dense
/// standard method holds O(P) of them per rank).
class Request {
 public:
  Request() = default;

  /// Persistent-send request to local rank `dst` with message tag `tag`.
  static Request send(const Comm& comm, std::span<const std::byte> buf,
                      int dst, int tag);
  /// Persistent-receive request from local rank `src` with tag `tag`.
  static Request recv(const Comm& comm, std::span<std::byte> buf, int src,
                      int tag);
  /// Persistent send of `bytes` payload bytes that the caller writes in
  /// place at each `start_in_place` — no user buffer, no staging copy.
  static Request send_in_place(const Comm& comm, std::size_t bytes, int dst,
                               int tag);
  /// Persistent receive of exactly `bytes` payload bytes, consumed in
  /// place by `Context::wait_in_place`.  A message of any other size is a
  /// SimError naming the channel and both sizes.
  static Request recv_in_place(const Comm& comm, std::size_t bytes, int src,
                               int tag);

  /// Begin the communication: posts the message (send) or arms the
  /// matching slot (recv).  Equivalent of `MPI_Start`.  In-place sends
  /// start with `start_in_place` instead.
  void start(Context& ctx);
  /// Begin an in-place send: posts the message and returns its payload
  /// bytes in the sender's arena.  The caller must fill them before the
  /// rank next suspends (the send is delivered at the phase commit).
  std::span<std::byte> start_in_place(Context& ctx);

  bool is_send() const { return is_send_; }
  bool started() const { return started_; }
  /// Mark a send request as *control* traffic (protocol acknowledgements,
  /// not payload).  Control messages are exempt from drops so reliable
  /// delivery terminates.  No effect on receives or on fault-free runs.
  void set_control(bool c) { control_ = c; }
  const Comm& comm() const { return comm_; }
  int peer() const { return peer_; }
  int tag() const { return tag_; }
  /// Channel key this request matches on.
  ChannelKey key() const;
  /// Bytes actually received by the last completed receive.
  std::size_t received_bytes() const { return bytes_; }

 private:
  friend class Engine;
  friend class Context;
  friend struct WaitAwaiter;
  /// Mark the request active; throws if it already is or is invalid.
  void arm();
  Comm comm_{};
  std::span<const std::byte> sbuf_{};
  std::span<std::byte> rbuf_{};
  int peer_ = -1;
  int tag_ = -1;
  bool is_send_ = false;
  bool in_place_ = false;
  bool started_ = false;
  bool control_ = false;
  /// Payload bytes: received by the last completed receive, or, for an
  /// in-place request, its declared size (which is all it ever receives).
  std::size_t bytes_ = 0;
};

}  // namespace simmpi
