/// \file reliable.cpp
/// \brief Channel sets and their stop-and-wait wrap (see reliable.hpp).

#include "mpix/reliable.hpp"

#include <cstdint>
#include <cstring>
#include <string>

namespace mpix::impl {

using simmpi::Context;
using simmpi::Request;
using simmpi::SimError;
using simmpi::Task;

void validate_reliability(const Reliability& rel) {
  if (!(rel.timeout > 0.0))
    throw SimError("Reliability::timeout must be > 0, got " +
                   std::to_string(rel.timeout));
}

namespace {

/// Bytes prepended to every reliable data message (32-bit sequence number
/// padded to preserve 8-byte payload alignment); also the size of an ack.
constexpr std::size_t kRelHeaderBytes = 8;
/// Timeout multiplier per successive retransmit.
constexpr double kBackoff = 2.0;
/// Retransmits per message before giving up with a SimError.
constexpr int kMaxRetries = 16;

/// Sender half of one wrapped channel.  Driven by `finish_channels`.
class RelSend {
 public:
  /// `payload` is the span the collective declared; its *current* bytes
  /// are staged at each start().
  RelSend(const simmpi::Comm& comm, std::span<const std::byte> payload,
          int peer, int data_tag, int ack_tag)
      : payload_(payload),
        stage_(kRelHeaderBytes + payload.size() + kRelHeaderBytes) {
    data_ = Request::send(
        comm,
        std::span<const std::byte>(stage_.data(),
                                   kRelHeaderBytes + payload.size()),
        peer, data_tag);
    ack_ = Request::recv(comm,
                         std::span<std::byte>(ack_data(), kRelHeaderBytes),
                         peer, ack_tag);
  }

  /// Stage header + payload and post the data message; arms the ack
  /// receive.  Call once per collective start.
  void start(Context& ctx) {
    ++seq_;
    done_ = false;
    retries_ = 0;
    std::memcpy(stage_.data(), &seq_, sizeof(seq_));
    if (!payload_.empty())
      std::memcpy(stage_.data() + kRelHeaderBytes, payload_.data(),
                  payload_.size());
    data_.start(ctx);
    ack_.start(ctx);
  }

  bool done() const { return done_; }
  simmpi::ChannelKey ack_key() const { return ack_.key(); }
  double deadline() const { return deadline_; }

  /// Await the initial data transmission's local completion and arm the
  /// first retransmit deadline.  Driver calls it once per collective.
  Task<> init(Context& ctx, const Reliability& rel) {
    co_await ctx.wait(data_);
    timeout_ = rel.timeout;
    deadline_ = ctx.now() + timeout_;
  }

  /// Consume one committed ack (precondition: Engine::has_message on
  /// ack_key()): the current sequence -> done, any other -> SimError.
  Task<> poll(Context& ctx) {
    co_await ctx.wait(ack_);
    handle_ack(ctx);
  }

  /// Park until the ack arrives or the retransmit deadline fires; on
  /// timeout retransmit and double the timeout, giving up after
  /// kMaxRetries.
  Task<> step_park(Context& ctx) {
    const bool got = co_await ctx.wait_until(ack_, deadline_);
    if (got) {
      handle_ack(ctx);
      co_return;
    }
    if (++retries_ > kMaxRetries)
      throw SimError("reliable send rank " + std::to_string(ctx.rank()) +
                     ": no ack from peer " + std::to_string(data_.peer()) +
                     " tag " + std::to_string(data_.tag()) + " seq " +
                     std::to_string(seq_) + " after " +
                     std::to_string(kMaxRetries) + " retransmits");
    // Timed out: the ack receive stays armed; repost the data message.
    ctx.engine().note_retransmit(ctx.rank());
    data_.start(ctx);
    co_await ctx.wait(data_);
    timeout_ *= kBackoff;
    deadline_ = ctx.now() + timeout_;
  }

 private:
  std::byte* ack_data() { return stage_.data() + stage_.size() - kRelHeaderBytes; }

  void handle_ack(const Context& ctx) {
    std::uint32_t acked = 0;
    std::memcpy(&acked, ack_data(), sizeof(acked));
    // Acks are control traffic (never dropped) and the receiver acks each
    // sequence once, so the only ack that can arrive is the current one.
    if (acked != seq_)
      throw SimError("reliable send rank " + std::to_string(ctx.rank()) +
                     ": ack for seq " + std::to_string(acked) +
                     " (current " + std::to_string(seq_) + ") from peer " +
                     std::to_string(data_.peer()));
    done_ = true;
  }

  std::span<const std::byte> payload_{};
  /// [header | payload copy | ack slot].  One heap block so the request
  /// spans bound at construction stay valid when the wrapper is moved
  /// (vector storage keeps its address; an inline array would not).
  std::vector<std::byte> stage_;
  Request data_{};
  Request ack_{};
  std::uint32_t seq_ = 0;
  bool done_ = false;
  int retries_ = 0;
  double timeout_ = 0.0;
  double deadline_ = 0.0;
};

/// Receiver half of one wrapped channel.  Driven by `finish_channels`.
class RelRecv {
 public:
  /// `out` is the span the collective declared.
  RelRecv(const simmpi::Comm& comm, std::span<std::byte> out, int peer,
          int data_tag, int ack_tag)
      : out_(out), stage_(kRelHeaderBytes + out.size() + kRelHeaderBytes) {
    data_ = Request::recv(
        comm, std::span<std::byte>(stage_.data(), kRelHeaderBytes + out.size()),
        peer, data_tag);
    ack_ = Request::send(
        comm, std::span<const std::byte>(ack_data(), kRelHeaderBytes), peer,
        ack_tag);
    ack_.set_control(true);
  }

  /// Arm the persistent data receive.  Call once per collective start.
  void start(Context& ctx) {
    done_ = false;
    data_.start(ctx);
  }

  bool done() const { return done_; }
  simmpi::ChannelKey data_key() const { return data_.key(); }

  /// Consume one data message (parks if none is committed yet): stale
  /// retransmit debris is discarded and the receive re-armed; the expected
  /// sequence is copied into the declared span, acknowledged, and
  /// already-committed debris drained.
  Task<> pump(Context& ctx) {
    co_await ctx.wait(data_);
    std::uint32_t seq = 0;
    std::memcpy(&seq, stage_.data(), sizeof(seq));
    if (seq > expected_)
      throw SimError("reliable recv rank " + std::to_string(ctx.rank()) +
                     ": got seq " + std::to_string(seq) + " expecting " +
                     std::to_string(expected_) + " from peer " +
                     std::to_string(data_.peer()) +
                     " (message lost without reliability retransmit?)");
    if (seq < expected_) {
      // Stale retransmit of an already-acknowledged sequence.
      data_.start(ctx);
      co_return;
    }
    if (!out_.empty())
      std::memcpy(out_.data(), stage_.data() + kRelHeaderBytes, out_.size());
    std::memcpy(ack_data(), &expected_, sizeof(expected_));
    ack_.start(ctx);
    co_await ctx.wait(ack_);
    ++expected_;
    done_ = true;
    // Drain retransmit debris already committed for the sequence
    // just acknowledged: retransmissions fire only under global quiescence,
    // and once our ack commits the sender never goes quiescent on this
    // sequence again, so every copy of it is committed by now.
    while (ctx.engine().has_message(data_.key())) {
      data_.start(ctx);
      co_await ctx.wait(data_);
      std::uint32_t s = 0;
      std::memcpy(&s, stage_.data(), sizeof(s));
      if (s >= expected_)
        throw SimError("reliable recv rank " + std::to_string(ctx.rank()) +
                       ": drained seq " + std::to_string(s) +
                       " >= next expected " + std::to_string(expected_) +
                       " from peer " + std::to_string(data_.peer()));
    }
  }

 private:
  std::byte* ack_data() { return stage_.data() + stage_.size() - kRelHeaderBytes; }

  std::span<std::byte> out_{};
  /// [header | payload landing | ack slot]; same move-safety layout as
  /// RelSend::stage_.
  std::vector<std::byte> stage_;
  Request data_{};
  Request ack_{};
  std::uint32_t expected_ = 1;
  bool done_ = false;
};

// ---- driver ---------------------------------------------------------

/// Complete every wrapped channel of one collective wait: multiplex acks,
/// data, retransmit timers and debris draining across all of them (see the
/// file brief in reliable.hpp for why sequential finishing would deadlock).
Task<> finish_channels(Context& ctx, const Reliability& rel,
                       std::span<RelRecv> recvs, std::span<RelSend> sends) {
  for (auto& s : sends) co_await s.init(ctx, rel);
  for (;;) {
    // Consume everything already committed, in deterministic (receive
    // order, then send order) sequence — the committed state a resumption
    // observes is a pure function of the schedule, so this sweep is as
    // width-free as the rest of the engine.
    bool open = false;
    bool progress = false;
    for (auto& r : recvs) {
      while (!r.done() && ctx.engine().has_message(r.data_key())) {
        co_await r.pump(ctx);
        progress = true;
      }
      open = open || !r.done();
    }
    for (auto& s : sends) {
      if (!s.done() && ctx.engine().has_message(s.ack_key())) {
        co_await s.poll(ctx);
        progress = true;
      }
      open = open || !s.done();
    }
    if (!open) co_return;
    if (progress) continue;
    // Nothing consumable.  Park on the earliest retransmit deadline this
    // rank owes; with no send open, block on the first open receive — its
    // sender still owes an ack-timer of its own, and the retransmission
    // it fires wakes us.
    RelSend* due = nullptr;
    for (auto& s : sends)
      if (!s.done() && (due == nullptr || s.deadline() < due->deadline()))
        due = &s;
    if (due != nullptr) {
      co_await due->step_park(ctx);
    } else {
      for (auto& r : recvs) {
        if (!r.done()) {
          co_await r.pump(ctx);
          break;
        }
      }
    }
  }
}

}  // namespace

// ---- ChannelSet -----------------------------------------------------

struct ChannelSet::Wrapped {
  std::vector<RelSend> sends;
  std::vector<RelRecv> recvs;
};

ChannelSet::ChannelSet() = default;
ChannelSet::ChannelSet(const simmpi::Comm& comm, const Reliability& rel,
                       int ack_tag)
    : comm_(comm), rel_(rel), ack_tag_(ack_tag) {}
ChannelSet::ChannelSet(ChannelSet&&) noexcept = default;
ChannelSet& ChannelSet::operator=(ChannelSet&&) noexcept = default;
ChannelSet::~ChannelSet() = default;

void ChannelSet::reserve(std::size_t sends, std::size_t recvs) {
  sends_.reserve(sends);
  recvs_.reserve(recvs);
}

ChannelSet::Wrapped* ChannelSet::wrap(int peer, std::size_t bytes) {
  if (!rel_.enabled || bytes == 0 ||
      comm_.locality_of(peer) != simmpi::Locality::network)
    return nullptr;
  if (!wrapped_) wrapped_ = std::make_unique<Wrapped>();
  return wrapped_.get();
}

void ChannelSet::send(std::span<const std::byte> payload, int peer, int tag) {
  if (Wrapped* w = wrap(peer, payload.size()))
    w->sends.emplace_back(comm_, payload, peer, tag, ack_tag_);
  else
    sends_.push_back(Request::send(comm_, payload, peer, tag));
}

void ChannelSet::recv(std::span<std::byte> out, int peer, int tag) {
  if (Wrapped* w = wrap(peer, out.size()))
    w->recvs.emplace_back(comm_, out, peer, tag, ack_tag_);
  else
    recvs_.push_back(Request::recv(comm_, out, peer, tag));
}

void ChannelSet::declare(std::span<const DirectMsg> sends,
                         std::span<const std::byte> from,
                         std::span<const DirectMsg> recvs,
                         std::span<std::byte> to, int tag,
                         std::size_t element_size) {
  const auto bytes = [element_size](long values) {
    return static_cast<std::size_t>(values) * element_size;
  };
  for (const DirectMsg& m : sends)
    send(from.subspan(bytes(m.displ), bytes(m.count)), m.peer, tag);
  for (const DirectMsg& m : recvs)
    recv(to.subspan(bytes(m.displ), bytes(m.count)), m.peer, tag);
}

void ChannelSet::start(Context& ctx) {
  for (auto& s : sends_) s.start(ctx);
  if (wrapped_)
    for (auto& s : wrapped_->sends) s.start(ctx);
  for (auto& r : recvs_) r.start(ctx);
  if (wrapped_)
    for (auto& r : wrapped_->recvs) r.start(ctx);
}

Task<> ChannelSet::finish(Context& ctx) {
  for (auto& s : sends_) co_await ctx.wait(s);
  for (auto& r : recvs_) co_await ctx.wait(r);
  if (wrapped_)
    co_await finish_channels(ctx, rel_, wrapped_->recvs, wrapped_->sends);
}

}  // namespace mpix::impl
