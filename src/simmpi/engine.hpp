#pragma once
/// \file engine.hpp
/// \brief The SPMD simulation engine: scheduler, mailboxes, virtual clocks.
///
/// The engine runs one C++20 coroutine per simulated rank.  Data movement is
/// real (payload bytes are copied between rank buffers), so algorithms can be
/// verified end-to-end; *time* is virtual, advanced per message by a
/// locality-aware cost model (see cost_model.hpp).
///
/// Execution is *phase-based*: every runnable rank coroutine of a phase is
/// resumed — concurrently, on a worker pool of `Options::threads` OS threads
/// — until it blocks on a receive or finishes.  Sends posted during a phase
/// are journaled per rank, and committed at the phase barrier in (rank,
/// program) order: only then are NIC queues charged, arrival times fixed,
/// messages delivered and parked receivers woken.  Because ranks never touch
/// shared simulator state inside a phase and the commit order is independent
/// of the worker count, the schedule — virtual clocks, message statistics,
/// delivered payload bytes — is **deterministic and bit-identical for every
/// value of `Options::threads`** (the determinism contract; see
/// docs/ARCHITECTURE.md and the `EngineThreads` test suite).
///
/// Rank programs therefore run concurrently: host-side state shared across
/// ranks (result tables, caches) must be per-rank slots or synchronized.
/// Engine-mediated communication needs no user synchronization.

#include <atomic>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "simmpi/comm.hpp"
#include "simmpi/cost_model.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/machine.hpp"
#include "simmpi/task.hpp"
#include "simmpi/types.hpp"
#include "util/arena.hpp"
#include "util/flat_map.hpp"
#include "util/thread_annotations.hpp"

namespace simmpi {

class Engine;

/// Non-owning view of a payload consumer: a callable taking
/// `std::span<const std::byte>` that an in-place receive hands the
/// message bytes to (Context::wait_in_place).  Trivially destructible, so
/// awaiters holding one stay safe under g++ 12 (COROUTINE_PITFALLS.md).
class PayloadSink {
 public:
  PayloadSink() = default;
  template <class F>
  explicit PayloadSink(const F& f)
      : self_(&f), fn_([](const void* self, std::span<const std::byte> b) {
          (*static_cast<const F*>(self))(b);
        }) {}
  explicit operator bool() const { return fn_ != nullptr; }
  void operator()(std::span<const std::byte> bytes) const { fn_(self_, bytes); }

 private:
  const void* self_ = nullptr;
  void (*fn_)(const void*, std::span<const std::byte>) = nullptr;
};

/// Per-rank execution context handed to every rank program.
class Context {
 public:
  Context(Engine& eng, int rank);

  /// Global (world) rank of this context.
  int rank() const { return rank_; }
  Engine& engine() { return *eng_; }
  /// The world communicator, containing every rank of the machine.
  Comm& world() { return world_; }
  /// Current virtual time of this rank, seconds.
  double now() const;
  /// Model `seconds` of local computation (advances this rank's clock).
  void compute(double seconds);

  /// Awaitable completing the given started request (MPI_Wait).
  /// Send requests complete locally; receive requests block until the
  /// matching message has been posted.
  auto wait(Request& req);
  /// Awaitable completing a started in-place receive
  /// (Request::recv_in_place): `consume` is called once with the message
  /// bytes, which stay in the sender's arena for the call and are released
  /// right after it.  Pass a named local (see docs/COROUTINE_PITFALLS.md).
  template <class F>
  auto wait_in_place(Request& req, const F& consume);
  /// Awaitable completing a started *receive* request, or timing out: the
  /// result is true when the message was received, false when virtual
  /// time reached `deadline` first (the request stays armed — a later
  /// wait can still complete it).  Timeouts fire only under global
  /// quiescence (no rank runnable), earliest deadline first, so they are
  /// as deterministic as everything else; the timing-out rank's clock
  /// advances to the deadline.  Foundation of the reliability layer's
  /// timeout-retransmit (mpix::Reliability).
  auto wait_until(Request& req, double deadline);
  /// Complete a set of requests (MPI_Waitall).  Requests are completed in
  /// the order given; clocks advance monotonically regardless of order.
  Task<> wait_all(std::span<Request> reqs);
  Task<> wait_all(std::span<Request* const> reqs);

 private:
  Engine* eng_;
  int rank_;
  Comm world_;
};

/// Simulation engine.  Owns topology, cost model, mailboxes and clocks.
class Engine {
 public:
  /// Engine execution knobs.
  struct Options {
    /// Worker threads of the phase scheduler.  0 = auto: the
    /// `COLLOM_SIM_THREADS` environment variable if set and positive, else
    /// `std::thread::hardware_concurrency()`.  Any value yields the same
    /// simulated schedule (see the determinism contract in the file brief).
    int threads = 0;
  };

  /// Per-rank, per-locality-tier message statistics (sender side).
  struct TierStats {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    bool operator==(const TierStats&) const = default;
  };
  /// Shared-link contention charged to one rank's network sends at one
  /// link tier (tier 0 = leaf-switch up/down links; see
  /// Machine::num_link_tiers).  The whole LCA path of a message — up the
  /// source subtree, down the destination subtree — is attributed to the
  /// sender.
  struct LinkStats {
    double busy_seconds = 0.0;  ///< occupancy this rank's sends added
    double max_backlog_seconds = 0.0;  ///< worst queue wait encountered
    bool operator==(const LinkStats&) const = default;
  };
  /// Fault-injection and reliability counters of one rank (all zero
  /// without a FaultPlan).  Drops are attributed to the *sender* of the
  /// dropped message; retransmits and timeout fires to the rank running
  /// the reliable sender protocol.
  struct FaultStats {
    std::uint64_t drops = 0;        ///< messages dropped in flight
    std::uint64_t retransmits = 0;  ///< reliability-layer resends
    std::uint64_t timeouts = 0;     ///< wait_until deadlines that fired
    bool operator==(const FaultStats&) const = default;
  };
  struct RankStats {
    TierStats tier[kNumLocalities];
    /// Simulated local computation charged via Context::compute (overlap
    /// windows etc.), seconds.  Cleared with the message stats.
    double compute_seconds = 0.0;
    /// Per link tier; sized lazily to Machine::num_link_tiers() by the
    /// first charged send, so it stays empty while
    /// CostParams::use_link_cap is off or this rank never crossed a
    /// switch boundary.
    std::vector<LinkStats> link;
    FaultStats faults;
    std::uint64_t total_msgs() const {
      std::uint64_t n = 0;
      for (const auto& t : tier) n += t.msgs;
      return n;
    }
    /// Zero every counter in place.  Unlike assigning a fresh RankStats
    /// this keeps `link`'s storage, so steady-state resets stay
    /// allocation-free (the EngineAlloc suite's guarantee).
    void clear() {
      for (auto& t : tier) t = TierStats{};
      compute_seconds = 0.0;
      for (auto& l : link) l = LinkStats{};
      faults = FaultStats{};
    }
    bool operator==(const RankStats&) const = default;
  };

  Engine(Machine machine, CostParams params, Options opts);
  Engine(Machine machine, CostParams params);

  /// A rank program: the same function body is executed by every rank
  /// (SPMD), distinguished through `Context::rank()`.
  using RankProgram = std::function<Task<>(Context&)>;

  /// Run `program` on every rank to completion.
  /// Throws SimError on deadlock and rethrows the first rank exception.
  void run(const RankProgram& program);

  const Machine& machine() const { return machine_; }
  const CostModel& model() const { return model_; }
  /// Resolved scheduler width (>= 1; see Options::threads).
  int threads() const { return threads_; }

  /// Virtual clock of a rank, seconds.
  double clock(int rank) const { return clocks_[rank]; }
  /// Maximum clock across ranks (completion time of the last rank).
  double max_clock() const;

  /// Attach (replacing any previous) a fault schedule.  Validates it and
  /// checks it against this engine's machine and cost model; pass a
  /// default-constructed plan to clear.  Without a plan — or with one
  /// whose events are all no-ops (rate 0 / severity 1) — the engine is
  /// byte-inert: it takes the identical hot path and produces
  /// byte-identical schedules.
  void set_fault_plan(const FaultPlan& plan);

  /// Per-channel delivery accounting, maintained only while a fault plan
  /// drops messages (commit-step-only writes); the watchdog's deadlock
  /// report reads it.
  struct ChanFaultCounts {
    std::uint64_t sent = 0;     ///< messages committed on the channel
    std::uint64_t dropped = 0;  ///< of those, dropped in flight
  };

  const RankStats& stats(int rank) const { return stats_[rank]; }
  /// Max over ranks of messages sent in the given tiers.
  std::uint64_t max_msgs(std::initializer_list<Locality> tiers) const;
  /// Sum over ranks of shared-link occupancy charged at `tier` (0.0 when
  /// the link cap is off or nothing crossed the tier).
  double total_link_seconds(int tier) const;
  /// Max over ranks of the worst link-queue backlog encountered at `tier`.
  double max_link_backlog_seconds(int tier) const;

  /// Collective clock reset: barrier-equivalent synchronization point after
  /// which every rank's clock restarts at zero, NIC queues are drained and
  /// statistics cleared.  Must be called by every rank.
  Task<> sync_reset(Context& ctx);

  // --- internal API used by Comm/Request/collectives -----------------

  /// Post a message of `bytes` payload bytes and return them, reserved in
  /// the sender's arena, for the caller to fill before the rank next
  /// suspends: advances the sender clock, counts statistics, and journals
  /// the send for delivery at the next phase commit (arrival times and NIC
  /// occupancy are computed there, in deterministic rank order).  Zero
  /// bytes never touch the arena.  `control` marks protocol traffic, which
  /// a FaultPlan never drops.
  std::span<std::byte> post_send_in_place(const Comm& comm, int src_local,
                                          int dst_local, int tag,
                                          std::size_t bytes,
                                          bool control = false);
  /// post_send_in_place plus one memcpy of `payload`.
  void post_send(const Comm& comm, int src_local, int dst_local, int tag,
                 std::span<const std::byte> payload, bool control = false);
  /// Whether a *committed* message is available on `key` (messages of the
  /// current phase only become visible at its commit).
  bool has_message(const ChannelKey& key) const;
  /// Park the current coroutine until a message for `key` is committed.
  void park(const ChannelKey& key, std::coroutine_handle<> h);
  /// Park like park(), but additionally eligible for a timeout wake at
  /// `deadline` (fired only under global quiescence; see
  /// Context::wait_until).
  void park_until(const ChannelKey& key, std::coroutine_handle<> h,
                  double deadline);
  /// Resolve a timed wait after resumption: false when the park timed
  /// out (request stays armed), true after completing the receive.
  bool finish_timed_wait(Request& req);
  /// Count one reliability-layer retransmission against `rank`.
  void note_retransmit(int rank) { ++stats_[rank].faults.retransmits; }
  /// Take the front message of a channel, hand its bytes to the request's
  /// buffer (one memcpy) or, for an in-place receive, to `consume`, release
  /// the sender's chunk and charge receive overheads.  An in-place receive
  /// requires exactly its declared size; a copying one at most its buffer.
  void complete_recv(Request& req, PayloadSink consume = {});
  /// Next internal (collective) tag for this (comm, rank); identical call
  /// sequences on all ranks of a communicator yield matching tags.
  int next_coll_tag(const Comm& comm);
  /// Deterministically get-or-create a sub-communicator.  All members must
  /// call with the same (parent, round, color, members) tuple.  Safe to
  /// call from concurrently executing ranks.
  std::shared_ptr<const CommData> get_or_create_comm(
      std::uint32_t parent_ctx, int round, int color,
      const std::vector<int>& members_global);
  /// Per-(comm,rank) counter of communicator-creating calls.
  int next_split_round(const Comm& comm);
  std::shared_ptr<const CommData> world_data() const { return world_data_; }

  /// Charge `seconds` of simulated local computation to `rank`: advances
  /// its virtual clock and accumulates RankStats::compute_seconds.  Purely
  /// per-rank state, so calls from concurrently executing rank coroutines
  /// are race-free and the schedule stays width-independent.
  void add_compute(int rank, double seconds) {
    clocks_[rank] += seconds;
    stats_[rank].compute_seconds += seconds;
  }

  /// Aggregate payload-arena statistics over all ranks (the allocation-
  /// regression tests read these; steady state must not grow `chunks`).
  util::Arena::Stats arena_stats() const;
  /// Channels currently holding messages at rank `rank`'s mailbox (a
  /// channel lives only from delivery until its last message is received).
  std::size_t channel_count(int rank) const {
    return rank_[rank].chan_count;
  }
  /// Queue slots ever created at rank `rank` (the mailbox working-set
  /// high-water mark; steady workloads stop growing this).
  std::size_t channel_slots(int rank) const {
    return rank_[rank].channels.size();
  }

 private:
  /// A send journaled during a phase, awaiting delivery at the commit.
  /// The payload bytes live in the sending rank's arena; `chunk` is
  /// released once the receive consumed them.
  struct PendingSend {
    ChannelKey key;
    const std::byte* data = nullptr;
    std::size_t size = 0;
    util::Arena::Chunk* chunk = nullptr;
    double depart = 0.0;  ///< sender clock after the send overhead
    Locality loc = Locality::self;
    bool control = false;  ///< protocol traffic, exempt from message faults
  };

  /// FIFO of committed, undelivered messages on one channel.  A plain
  /// vector with a head cursor: push_back at the tail, pop at the head,
  /// storage rewound (capacity kept) whenever the queue drains.
  struct ChannelQueue {
    std::vector<Message> q;
    std::size_t head = 0;
    bool empty() const { return head == q.size(); }
    void push(const Message& m) { q.push_back(m); }
    Message pop() {
      Message m = q[head++];
      if (head == q.size()) {
        q.clear();
        head = 0;
      }
      return m;
    }
    void drop_all() {
      q.clear();
      head = 0;
    }
  };

  /// State owned by one rank.  During a phase it is touched only by that
  /// rank's coroutine (on whichever worker runs it); the commit step — and
  /// only it — crosses rank boundaries, single-threaded.  Exception: the
  /// per-chunk refcounts of a sender's arena are decremented by receivers
  /// as they consume its payload bytes (Arena::release is thread-safe).
  struct RankState {
    static constexpr std::uint32_t kEmptySlot = 0xFFFFFFFFu;
    /// Mailbox: a flat open-addressing table (linear probing, power-of-two
    /// size, backward-shift deletion) over FIFO queues stored separately.
    /// A channel exists only while it holds messages: it is interned at
    /// delivery and erased when its last message is received, with the
    /// drained queue (capacity retained) parked on a free list for the
    /// next channel.  Collectives mint fresh tags per call, so without
    /// the erase the table — and with it absent-key probe lengths,
    /// end-of-run cleanup and resident memory — would grow for the
    /// engine's whole lifetime.  Invariant: an interned channel is
    /// never empty.
    std::vector<std::pair<ChannelKey, std::uint32_t>> chan_slots;
    std::size_t chan_count = 0;
    std::vector<ChannelQueue> channels;
    std::vector<std::uint32_t> free_channels;  ///< drained queue indices
    static constexpr double kNoDeadline =
        std::numeric_limits<double>::infinity();
    std::coroutine_handle<> parked{};  ///< this rank's blocked coroutine
    ChannelKey parked_key{};
    /// Timeout of a wait_until park (kNoDeadline for plain parks).
    double parked_deadline = kNoDeadline;
    /// Set by fire_earliest_timeout, consumed by finish_timed_wait.
    bool timed_out = false;
    int inbox_count = 0;  ///< committed, unreceived messages
    std::vector<PendingSend> journal;
    int sync_leaves = 0;  ///< sync_reset exits since the last commit
    util::FlatMap<std::uint32_t, int> coll_tags;     ///< per comm ctx
    util::FlatMap<std::uint32_t, int> split_rounds;  ///< per comm ctx
    /// Payload bytes of this rank's sends.  Bumped only by this rank's
    /// coroutine; chunks recycle as receivers release them.
    util::Arena arena;

    /// Whether `key` currently holds a message (interned => non-empty).
    bool has_channel(const ChannelKey& key) const;
    /// Pop the front message of `key` into `out`; erases the channel when
    /// that drained it.  False when no message is pending.
    bool pop_message(const ChannelKey& key, Message& out);
    /// The queue for `key`, interning it on first use (commit step only).
    ChannelQueue& intern_channel(const ChannelKey& key);
    /// Error-path cleanup: drop all messages, empty the table, park every
    /// queue on the free list (capacity retained).
    void reset_mailbox();
  };

  void commit_phase();
  /// Decide whether one journaled send is dropped; charge the surviving
  /// message's NIC/link/ejection queues and enqueue it into the
  /// destination mailbox.  Commit step only.
  void deliver(const PendingSend& ps);
  /// Wake the timed park with the earliest (deadline, rank); false when
  /// none exists.  Called only under global quiescence (ready_ empty), so
  /// firing order is a pure function of the schedule.
  bool fire_earliest_timeout();
  void check_quiescent();

  Machine machine_;
  CostModel model_;
  int threads_ = 1;

  std::vector<double> clocks_;
  std::vector<double> nic_free_;  // per node: time the NIC becomes free
  // Per node: time the receive side of the NIC becomes free (endpoint
  // congestion; only charged when CostParams::use_ejection_cap is set).
  std::vector<double> eject_free_;
  // Shared switch up/down link queues (fat-tree core): one free-time per
  // link, all tiers flattened with link_tier_off_ as the per-tier base.
  // Sized only when CostParams::use_link_cap is on and the machine has
  // link tiers; charged exclusively in the single-threaded commit step.
  std::vector<double> link_up_free_;
  std::vector<double> link_down_free_;
  std::vector<int> link_tier_off_;
  std::vector<double> link_rate_eff_;  // per tier: effective bytes/s
  std::vector<RankStats> stats_;
  std::vector<RankState> rank_;

  /// Coroutines runnable in the next phase (filled by the commit step in
  /// deterministic delivery order).
  std::vector<std::coroutine_handle<>> ready_;

  std::shared_ptr<const CommData> world_data_;
  util::Mutex comm_mu_;
  std::uint32_t next_ctx_id_ GUARDED_BY(comm_mu_) = 1;
  /// Created communicators by (parent ctx_id, split round, color).
  std::map<std::tuple<std::uint32_t, int, int>,
           std::shared_ptr<const CommData>>
      comm_cache_ GUARDED_BY(comm_mu_);

  // sync_reset generation state (commit-side; see sync_reset)
  int sync_arrivals_ = 0;

  // Fault injection (see fault.hpp): the attached plan's seed and its two
  // magnitudes, fixed while running.  With no plan the drop rate is 0 and
  // the brownout factor 1, so the fault-free hot path stays branch-only
  // and multiplies by exactly 1 (byte-inert contract).
  std::uint64_t fault_seed_ = 0;
  double drop_rate_ = 0.0;  // msg_drop rate
  double brownout_ = 1.0;   // link_brownout severity
  /// Per-channel sequence + delivery accounting; written only in the
  /// commit step, only while drop_rate_ > 0 (steady workloads on
  /// persistent channels stop growing it after the first iteration).
  util::FlatMap<ChannelKey, ChanFaultCounts> fault_chan_;

  bool running_ = false;
};

// ---- inline bits ----------------------------------------------------

inline double Context::now() const { return eng_->clock(rank_); }
inline void Context::compute(double seconds) {
  eng_->add_compute(rank_, seconds);
}

/// Awaiter for completing a single request.
struct WaitAwaiter {
  Context& ctx;
  Request& req;
  bool await_ready() const {
    if (!req.started()) throw SimError("wait on inactive request");
    if (req.is_send()) return true;
    return ctx.engine().has_message(req.key());
  }
  void await_suspend(std::coroutine_handle<> h) const {
    ctx.engine().park(req.key(), h);
  }
  void await_resume() const {
    if (req.is_send()) {
      req.started_ = false;
      return;
    }
    ctx.engine().complete_recv(req);
  }
};

inline auto Context::wait(Request& req) { return WaitAwaiter{*this, req}; }

/// Awaiter for completing an in-place receive (Context::wait_in_place).  A
/// type of its own, so frames awaiting plain waits keep their size.
struct InPlaceWaitAwaiter {
  Context& ctx;
  Request& req;
  PayloadSink consume;
  bool await_ready() const {
    if (req.is_send())
      throw SimError("wait_in_place: sends complete through Context::wait");
    return WaitAwaiter{ctx, req}.await_ready();
  }
  void await_suspend(std::coroutine_handle<> h) const {
    ctx.engine().park(req.key(), h);
  }
  void await_resume() const { ctx.engine().complete_recv(req, consume); }
};
// Awaited as a temporary inside co_await full-expressions; g++ 12 may
// destroy those twice, which is harmless only while this holds
// (docs/COROUTINE_PITFALLS.md).
static_assert(std::is_trivially_destructible_v<InPlaceWaitAwaiter>);

template <class F>
auto Context::wait_in_place(Request& req, const F& consume) {
  return InPlaceWaitAwaiter{*this, req, PayloadSink(consume)};
}

/// Awaiter for a receive-with-timeout (Context::wait_until).  Resumes with
/// true when the message arrived, false when the deadline fired first.
struct TimedWaitAwaiter {
  Context& ctx;
  Request& req;
  double deadline;
  bool await_ready() const {
    if (!req.started()) throw SimError("wait_until on inactive request");
    if (req.is_send())
      throw SimError("wait_until: send requests complete locally; "
                     "timeouts apply to receives only");
    return ctx.engine().has_message(req.key());
  }
  void await_suspend(std::coroutine_handle<> h) const {
    ctx.engine().park_until(req.key(), h, deadline);
  }
  bool await_resume() const { return ctx.engine().finish_timed_wait(req); }
};

inline auto Context::wait_until(Request& req, double deadline) {
  return TimedWaitAwaiter{*this, req, deadline};
}

}  // namespace simmpi
