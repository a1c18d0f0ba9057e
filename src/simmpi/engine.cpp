#include "simmpi/engine.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <sstream>
#include <string>

#include "simmpi/coll.hpp"
#include "util/worker_pool.hpp"

namespace simmpi {

namespace {

/// The link-cap parameters are only read when the cap is on, so they are
/// only validated then.
void validate_link_params(const CostParams& p) {
  if (!(p.link_rate > 0.0))
    throw SimError("CostParams: link_rate must be > 0 (got " +
                   std::to_string(p.link_rate) + ")");
  if (!(p.link_msg_bytes >= 0.0))
    throw SimError("CostParams: link_msg_bytes must be >= 0 (got " +
                   std::to_string(p.link_msg_bytes) + ")");
}

}  // namespace

Context::Context(Engine& eng, int rank)
    : eng_(&eng), rank_(rank), world_(&eng, eng.world_data(), rank) {}

Task<> Context::wait_all(std::span<Request> reqs) {
  for (auto& r : reqs) co_await wait(r);
}

Engine::Engine(Machine machine, CostParams params)
    : Engine(std::move(machine), params, Options{}) {}

Engine::Engine(Machine machine, CostParams params, Options opts)
    : machine_(std::move(machine)),
      model_(params),
      threads_(util::resolve_threads(opts.threads, {"COLLOM_SIM_THREADS"})),
      clocks_(machine_.num_ranks(), 0.0),
      nic_free_(machine_.num_nodes(), 0.0),
      eject_free_(machine_.num_nodes(), 0.0),
      stats_(machine_.num_ranks()),
      rank_(machine_.num_ranks()) {
  auto world = std::make_shared<CommData>();
  world->ctx_id = 0;
  world->members.resize(machine_.num_ranks());
  for (int r = 0; r < machine_.num_ranks(); ++r) world->members[r] = r;
  world_data_ = std::move(world);

  if (model_.params().use_link_cap) {
    const int tiers = machine_.num_link_tiers();
    validate_link_params(model_.params());
    link_tier_off_.assign(tiers + 1, 0);
    for (int t = 0; t < tiers; ++t)
      link_tier_off_[t + 1] = link_tier_off_[t] + machine_.switches_at(t);
    link_up_free_.assign(link_tier_off_[tiers], 0.0);
    link_down_free_.assign(link_tier_off_[tiers], 0.0);
    link_rate_eff_.resize(tiers);
    for (int t = 0; t < tiers; ++t)
      link_rate_eff_[t] = model_.link_rate(machine_.level_taper(t));
  }
}

void Engine::run(const RankProgram& program) {
  if (running_) throw SimError("Engine::run: already running");
  running_ = true;
  struct Guard {
    Engine& eng;
    ~Guard() {
      // Clear in-flight state on *every* exit — in particular the
      // exception paths (phase error, rank exception), where parked
      // coroutine handles are about to dangle once the tasks vector
      // unwinds.  A later run() must never deliver into a stale mailbox
      // or wake a destroyed coroutine.
      eng.check_quiescent();
      eng.running_ = false;
    }
  } guard{*this};

  // Per-run channel accounting (sequence numbers restart per run so the
  // drop schedule is a function of the run alone, not of engine history).
  // clear() keeps the map's storage.
  if (drop_rate_ > 0.0) fault_chan_.clear();

  const int nranks = machine_.num_ranks();
  std::vector<Context> ctxs;
  ctxs.reserve(nranks);  // reserved once: coroutines hold Context&
  std::vector<Task<>> tasks;
  tasks.reserve(nranks);
  for (int r = 0; r < nranks; ++r) ctxs.emplace_back(*this, r);
  for (int r = 0; r < nranks; ++r) tasks.push_back(program(ctxs[r]));
  ready_.clear();
  for (int r = 0; r < nranks; ++r) ready_.push_back(tasks[r].handle());

  {
    // One phase's rank coroutines are resumed on the shared WorkerPool
    // (util/worker_pool.hpp).  All engine state a resumed coroutine touches
    // is per-rank (see Engine::RankState), so workers never contend, and
    // the pool's handoffs give the commit step a view of every coroutine
    // frame written this phase.  Blocked handout (chunks of 8) keeps
    // consecutive ranks on one worker — their clocks and stats are
    // adjacent in memory.
    util::WorkerPool pool(std::min(threads_, nranks));
    std::vector<std::coroutine_handle<>> phase;
    std::vector<std::exception_ptr> errs;
    // One std::function for every phase: constructing it per pool.run call
    // would allocate each phase (the capture list exceeds the small-buffer
    // optimization of common std::function implementations).
    const util::WorkerPool::ChunkFn resume_chunk = [&](std::size_t b,
                                                       std::size_t e, int) {
      for (std::size_t i = b; i < e; ++i) {
        try {
          phase[i].resume();
        } catch (...) {
          errs[i] = std::current_exception();
        }
      }
    };
    for (;;) {
      // Global quiescence (no rank runnable) is the only point where a
      // timed park may fire: any message that could still complete the
      // wait has been committed by now, so "timeout vs arrival" is a pure
      // function of the schedule.  Earliest (deadline, rank) first, one
      // per phase, keeps the firing order width-independent too.
      if (ready_.empty() && !fire_earliest_timeout()) break;
      phase.clear();
      phase.swap(ready_);
      errs.assign(phase.size(), nullptr);
      pool.run(phase.size(), 8, resume_chunk);
      // First exception in handle order wins (matching the pre-pool
      // behaviour); every handle of the phase has been resumed regardless.
      for (auto& ep : errs)
        if (ep) std::rethrow_exception(ep);
      commit_phase();
    }
  }

  // Surface rank exceptions first: they are the usual root cause of an
  // apparent deadlock (a failed rank stops sending).
  for (auto& t : tasks) {
    if (t.done()) t.result();
  }
  bool all_done = true;
  for (auto& t : tasks) all_done = all_done && t.done();
  if (!all_done) {
    // Quiescence watchdog: no rank can progress, yet messages are owed.
    // Dump who is blocked where, with per-channel sent-vs-delivered
    // accounting when fault injection recorded any — a protocol bug or a
    // swallowed message becomes an actionable error instead of a hang.
    std::ostringstream os;
    long unconsumed = 0;
    for (const auto& rs : rank_) unconsumed += rs.inbox_count;
    std::uint64_t dropped = 0;
    for (const auto& [key, cf] : fault_chan_) dropped += cf.dropped;
    os << "Engine::run: deadlock; no rank can progress and messages are "
          "owed ("
       << unconsumed << " committed but unconsumed, " << dropped
       << " dropped in flight); blocked ranks:";
    int shown = 0;
    for (int r = 0; r < nranks; ++r) {
      const auto& rs = rank_[r];
      if (!rs.parked) continue;
      if (shown++ == 8) {
        os << " ...";
        break;
      }
      const ChannelKey& key = rs.parked_key;
      os << " [rank " << r << " waiting on ctx=" << key.ctx << " "
         << key.src << "->" << key.dst << " tag=" << key.tag;
      if (const ChanFaultCounts* cf = fault_chan_.find(key)) {
        os << ": sent=" << cf->sent << " dropped=" << cf->dropped
           << " delivered=" << cf->sent - cf->dropped;
      }
      os << "]";
    }
    throw SimError(os.str());  // Guard clears the in-flight state
  }
  long pending = 0;
  for (const auto& rs : rank_) pending += rs.inbox_count;
  if (pending != 0) {
    throw SimError("Engine::run: " + std::to_string(pending) +
                   " message(s) posted but never received");
  }
}

/// Clear in-flight state so a failed run leaves the engine inspectable.
/// Interned channel tables and all retained capacity (queues, journals,
/// arena chunks) survive: a follow-up run() on the same engine reuses them
/// without re-warming the allocator.
void Engine::check_quiescent() {
  for (auto& rs : rank_) {
    // A successful run left every queue drained (and therefore erased);
    // only the error paths pay for a mailbox walk.
    if (rs.inbox_count > 0) rs.reset_mailbox();
    rs.parked = {};
    rs.parked_deadline = RankState::kNoDeadline;
    rs.timed_out = false;
    rs.inbox_count = 0;
    rs.journal.clear();
    rs.arena.reset();
  }
}

namespace {

/// SplitMix-style avalanche of the channel identity (same recipe as the
/// old unordered_map hasher; only slot placement reads it).
std::size_t channel_hash(const ChannelKey& k) {
  std::uint64_t h = k.ctx;
  h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint32_t>(k.src);
  h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint32_t>(k.dst);
  h = h * 0x9E3779B97F4A7C15ull + static_cast<std::uint32_t>(k.tag);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return static_cast<std::size_t>(h);
}

}  // namespace

bool Engine::RankState::has_channel(const ChannelKey& key) const {
  const std::size_t n = chan_slots.size();
  if (n == 0) return false;
  for (std::size_t i = channel_hash(key) & (n - 1);; i = (i + 1) & (n - 1)) {
    const auto& slot = chan_slots[i];
    if (slot.second == kEmptySlot) return false;
    if (slot.first == key) return true;
  }
}

bool Engine::RankState::pop_message(const ChannelKey& key, Message& out) {
  const std::size_t n = chan_slots.size();
  if (n == 0) return false;
  const std::size_t mask = n - 1;
  std::size_t i = channel_hash(key) & mask;
  for (;; i = (i + 1) & mask) {
    if (chan_slots[i].second == kEmptySlot) return false;
    if (chan_slots[i].first == key) break;
  }
  const std::uint32_t qi = chan_slots[i].second;
  ChannelQueue& ch = channels[qi];
  out = ch.pop();
  if (!ch.empty()) return true;

  // Drained: erase the slot (backward shift, so probe chains stay intact
  // without tombstones) and park the queue for reuse.
  free_channels.push_back(qi);
  --chan_count;
  std::size_t j = i;
  for (;;) {
    chan_slots[i].second = kEmptySlot;
    for (;;) {
      j = (j + 1) & mask;
      if (chan_slots[j].second == kEmptySlot) return true;
      const std::size_t home = channel_hash(chan_slots[j].first) & mask;
      // Move j into the hole iff the hole lies on j's probe path, i.e.
      // home..j (cyclically) passes through i.
      if (((i - home) & mask) <= ((j - home) & mask)) break;
    }
    chan_slots[i] = chan_slots[j];
    i = j;
  }
}

Engine::ChannelQueue& Engine::RankState::intern_channel(const ChannelKey& key) {
  // Grow at 1/2 load (also handles the empty table): absent-key probes —
  // every receive checks its channel before parking — must stay short.
  // Rehashing is the only allocation here, amortized over the working
  // set's high-water mark; erase-on-drain keeps the table at the number
  // of channels holding messages *right now*, so a steady workload stops
  // rehashing (and allocating queues) after warm-up.
  if ((chan_count + 1) * 2 >= chan_slots.size()) {
    const std::size_t cap = std::max<std::size_t>(64, chan_slots.size() * 2);
    std::vector<std::pair<ChannelKey, std::uint32_t>> fresh(
        cap, {ChannelKey{}, kEmptySlot});
    for (const auto& slot : chan_slots) {
      if (slot.second == kEmptySlot) continue;
      std::size_t i = channel_hash(slot.first) & (cap - 1);
      while (fresh[i].second != kEmptySlot) i = (i + 1) & (cap - 1);
      fresh[i] = slot;
    }
    chan_slots.swap(fresh);
  }
  const std::size_t n = chan_slots.size();
  for (std::size_t i = channel_hash(key) & (n - 1);; i = (i + 1) & (n - 1)) {
    auto& slot = chan_slots[i];
    if (slot.second == kEmptySlot) {
      std::uint32_t qi;
      if (!free_channels.empty()) {
        qi = free_channels.back();
        free_channels.pop_back();
      } else {
        qi = static_cast<std::uint32_t>(channels.size());
        channels.emplace_back();
      }
      slot = {key, qi};
      ++chan_count;
      return channels[qi];
    }
    if (slot.first == key) return channels[slot.second];
  }
}

void Engine::RankState::reset_mailbox() {
  chan_slots.assign(chan_slots.size(), {ChannelKey{}, kEmptySlot});
  chan_count = 0;
  free_channels.clear();
  free_channels.reserve(channels.size());
  for (std::uint32_t i = 0; i < channels.size(); ++i) {
    channels[i].drop_all();
    free_channels.push_back(i);
  }
}

util::Arena::Stats Engine::arena_stats() const {
  util::Arena::Stats total;
  for (const auto& rs : rank_) {
    const auto& s = rs.arena.stats();
    total.chunks += s.chunks;
    total.capacity_bytes += s.capacity_bytes;
    total.recycles += s.recycles;
    total.allocs += s.allocs;
  }
  return total;
}

void Engine::commit_phase() {
  const int nranks = machine_.num_ranks();
  // Pass 1 — NIC epoch reset.  All sync_reset leavers of one generation
  // count their commit(s) strictly after every pre-barrier send committed;
  // the first leave of a generation drains the queues, before any
  // post-barrier send of pass 2 is charged.  A rank can leave two
  // back-to-back sync_resets in one phase, so leaves are counted, not
  // flagged, and one commit may close a generation and open the next.
  int leaves = 0;
  for (auto& rs : rank_) {
    leaves += rs.sync_leaves;
    rs.sync_leaves = 0;
  }
  for (; leaves > 0; --leaves) {
    if (sync_arrivals_ == 0) {
      std::fill(nic_free_.begin(), nic_free_.end(), 0.0);
      std::fill(eject_free_.begin(), eject_free_.end(), 0.0);
      std::fill(link_up_free_.begin(), link_up_free_.end(), 0.0);
      std::fill(link_down_free_.begin(), link_down_free_.end(), 0.0);
    }
    if (++sync_arrivals_ == nranks) sync_arrivals_ = 0;
  }
  // Pass 2 — deliver journaled sends in (rank, program) order.  This order
  // is a function of the phase structure alone, never of the worker count
  // or the within-phase interleaving: the NIC queue arithmetic below is
  // bit-identical for any Options::threads.
  for (int r = 0; r < nranks; ++r) {
    auto& journal = rank_[r].journal;
    for (const PendingSend& ps : journal) deliver(ps);
    journal.clear();
  }
}

void Engine::set_fault_plan(const FaultPlan& plan) {
  if (running_) throw SimError("Engine::set_fault_plan: engine is running");
  validate_fault_plan(plan);
  double drop = 0.0;
  double brownout = 1.0;
  for (const auto& e : plan.events) {
    if (e.kind == FaultSpec::Kind::msg_drop) drop = e.rate;
    if (e.kind == FaultSpec::Kind::link_brownout) brownout = e.severity;
  }
  // A brownout the cost model would silently ignore is a configuration
  // error: it needs the link cap and a switch hierarchy with link tiers.
  if (brownout < 1.0 &&
      (!model_.params().use_link_cap || machine_.num_link_tiers() == 0))
    throw SimError(
        "FaultPlan: link_brownout requires CostParams::use_link_cap and "
        "MachineConfig::switch_levels with at least one link tier");
  fault_seed_ = plan.seed;
  drop_rate_ = drop;
  brownout_ = brownout;
}

void Engine::deliver(const PendingSend& ps) {
  // Fault gate: only payload-bearing network messages are candidates;
  // control traffic (reliability acks, collective scaffolding) is always
  // exempt, so retransmission terminates.  One uniform draw per message
  // decides drop vs clean delivery — a pure function of (plan seed,
  // channel, per-channel sequence number), evaluated only here in the
  // single-threaded commit step.
  if (drop_rate_ > 0.0 && ps.loc == Locality::network && ps.size > 0 &&
      !ps.control) {
    ChanFaultCounts& cf = fault_chan_[ps.key];
    const std::uint64_t seq = ++cf.sent;
    if (fault_uniform(fault_seed_, ps.key, seq) < drop_rate_) {
      // Lost at injection: no queue is charged, the payload chunk is
      // released, the receiver sees nothing.
      ++stats_[ps.key.src].faults.drops;
      ++cf.dropped;
      if (ps.chunk != nullptr) util::Arena::release(ps.chunk);
      return;
    }
  }

  const std::size_t bytes = ps.size;
  double arrival;
  if (ps.loc == Locality::network && model_.params().use_injection_cap) {
    const int node = machine_.node_of(ps.key.src);
    const double inject = std::max(ps.depart, nic_free_[node]);
    // Zero-byte messages (barriers, handshakes) occupy no injection
    // bandwidth and must not extend the NIC busy window: a late-departing
    // empty message would otherwise re-contaminate the queue across a
    // sync_reset measurement boundary.
    if (bytes > 0) nic_free_[node] = inject + model_.nic_occupancy(bytes);
    arrival = inject + model_.transfer_time(ps.loc, bytes);
  } else {
    arrival = ps.depart + model_.transfer_time(ps.loc, bytes);
  }

  // Shared-link contention: the message store-and-forwards through every
  // up/down link between its source and destination subtrees, each link a
  // FIFO queue like the NICs.  lca == 0 means the pair meets at the leaf
  // switch — the node<->leaf links are the NIC, charged above — so only
  // deeper crossings pay; zero-byte messages pass for the same reason
  // they skip the NIC queues.  The queue arithmetic runs only here, in
  // the single-threaded commit step, in (rank, program) order:
  // bit-identical for any Options::threads.
  if (ps.loc == Locality::network && bytes > 0 &&
      model_.params().use_link_cap) {
    const int snode = machine_.node_of(ps.key.src);
    const int dnode = machine_.node_of(ps.key.dst);
    const int lca = machine_.node_lca_level(snode, dnode);
    if (lca > 0) {
      RankStats& st = stats_[ps.key.src];
      if (st.link.empty())
        st.link.resize(static_cast<std::size_t>(machine_.num_link_tiers()));
      auto charge = [&](int tier, double& free_at) {
        LinkStats& ls = st.link[static_cast<std::size_t>(tier)];
        ls.max_backlog_seconds =
            std::max(ls.max_backlog_seconds, free_at - arrival);
        // A brownout scales every tier; 1.0 without one (exact).
        const double occ =
            model_.link_occupancy(bytes, link_rate_eff_[tier] * brownout_);
        ls.busy_seconds += occ;
        arrival = std::max(arrival, free_at) + occ;
        free_at = arrival;
      };
      for (int t = 0; t < lca; ++t)  // up the source subtree
        charge(t, link_up_free_[link_tier_off_[t] +
                                machine_.switch_of(snode, t)]);
      for (int t = lca - 1; t >= 0; --t)  // down the destination subtree
        charge(t, link_down_free_[link_tier_off_[t] +
                                  machine_.switch_of(dnode, t)]);
    }
  }

  // Receiver-side endpoint congestion: network payloads drain through the
  // destination node's NIC at nic_eject_rate, store-and-forward, so N-to-1
  // incast queues at the receiver.  Zero-byte messages pass through for the
  // same reason they skip injection occupancy above.  The queue arithmetic
  // runs only here, in the single-threaded commit step, in (rank, program)
  // order — width-independent like the injection queue.
  if (ps.loc == Locality::network && bytes > 0 &&
      model_.params().use_ejection_cap) {
    const int dnode = machine_.node_of(ps.key.dst);
    const double done =
        std::max(arrival, eject_free_[dnode]) + model_.eject_occupancy(bytes);
    eject_free_[dnode] = done;
    arrival = done;
  }

  RankState& dst = rank_[ps.key.dst];
  dst.intern_channel(ps.key).push(Message{ps.data, ps.size, ps.chunk, arrival});
  ++dst.inbox_count;
  if (dst.parked && dst.parked_key == ps.key) {
    ready_.push_back(dst.parked);
    dst.parked = {};
    dst.parked_deadline = RankState::kNoDeadline;
  }
}

bool Engine::fire_earliest_timeout() {
  int best = -1;
  for (int r = 0; r < static_cast<int>(rank_.size()); ++r) {
    const RankState& rs = rank_[r];
    if (!rs.parked || rs.parked_deadline == RankState::kNoDeadline) continue;
    if (best < 0 || rs.parked_deadline < rank_[best].parked_deadline)
      best = r;
  }
  if (best < 0) return false;
  RankState& rs = rank_[best];
  // The rank waited until its deadline: advance its clock there (the
  // deadline is now() + timeout at park time, so this never rewinds).
  clocks_[best] = std::max(clocks_[best], rs.parked_deadline);
  ++stats_[best].faults.timeouts;
  rs.timed_out = true;
  ready_.push_back(rs.parked);
  rs.parked = {};
  rs.parked_deadline = RankState::kNoDeadline;
  return true;
}

void Engine::park_until(const ChannelKey& key, std::coroutine_handle<> h,
                        double deadline) {
  park(key, h);
  rank_[key.dst].parked_deadline = deadline;
}

bool Engine::finish_timed_wait(Request& req) {
  RankState& rs = rank_[req.key().dst];
  if (rs.timed_out) {
    rs.timed_out = false;
    return false;
  }
  complete_recv(req);
  return true;
}

double Engine::max_clock() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

std::uint64_t Engine::max_msgs(std::initializer_list<Locality> tiers) const {
  std::uint64_t best = 0;
  for (const auto& rs : stats_) {
    std::uint64_t n = 0;
    for (Locality t : tiers) n += rs.tier[static_cast<int>(t)].msgs;
    best = std::max(best, n);
  }
  return best;
}

double Engine::total_link_seconds(int tier) const {
  double sum = 0.0;
  for (const auto& rs : stats_)
    if (static_cast<std::size_t>(tier) < rs.link.size())
      sum += rs.link[static_cast<std::size_t>(tier)].busy_seconds;
  return sum;
}

Task<> Engine::sync_reset(Context& ctx) {
  co_await coll::barrier(ctx, ctx.world());
  // The dissemination barrier guarantees every rank has entered before any
  // rank leaves, so every send journaled from here on is post-barrier.  The
  // per-rank count defers the shared NIC-queue drain to the commit step,
  // which folds each reset generation into a single drain (see
  // commit_phase): leavers race-free even though they resume concurrently.
  ++rank_[ctx.rank()].sync_leaves;
  clocks_[ctx.rank()] = 0.0;
  stats_[ctx.rank()].clear();
}

std::span<std::byte> Engine::post_send_in_place(const Comm& comm,
                                                int src_local, int dst_local,
                                                int tag, std::size_t bytes,
                                                bool control) {
  const int gsrc = comm.global(src_local);
  const int gdst = comm.global(dst_local);
  const Locality loc = machine_.classify(gsrc, gdst);

  double& clk = clocks_[gsrc];
  clk += model_.send_overhead();

  auto& ts = stats_[gsrc].tier[static_cast<int>(loc)];
  ++ts.msgs;
  ts.bytes += bytes;

  // Reserve the payload in this rank's bump arena: a pointer bump, no heap
  // traffic in steady state.  The bytes stay put until the receive
  // completes and releases the chunk back to the arena.
  RankState& rs = rank_[gsrc];
  util::Arena::Alloc alloc;
  if (bytes > 0) alloc = rs.arena.allocate(bytes);

  // Arrival time and NIC occupancy depend on shared per-node state; they
  // are computed at the phase commit (deliver), not here.
  rs.journal.push_back(PendingSend{ChannelKey{comm.id(), gsrc, gdst, tag},
                                   alloc.data, bytes, alloc.chunk, clk, loc,
                                   control});
  return {alloc.data, bytes};
}

void Engine::post_send(const Comm& comm, int src_local, int dst_local, int tag,
                       std::span<const std::byte> payload, bool control) {
  const std::span<std::byte> out = post_send_in_place(
      comm, src_local, dst_local, tag, payload.size(), control);
  if (!payload.empty()) std::memcpy(out.data(), payload.data(), out.size());
}

bool Engine::has_message(const ChannelKey& key) const {
  return rank_[key.dst].has_channel(key);
}

void Engine::park(const ChannelKey& key, std::coroutine_handle<> h) {
  RankState& rs = rank_[key.dst];
  if (rs.parked)
    throw SimError("Engine::park: rank already parked (overlapping waits on "
                   "one rank cannot happen with one coroutine per rank)");
  rs.parked = h;
  rs.parked_key = key;
}

void Engine::complete_recv(Request& req, PayloadSink consume) {
  const ChannelKey key = req.key();
  RankState& rs = rank_[key.dst];
  if (req.in_place_ != static_cast<bool>(consume))
    throw SimError("Engine::complete_recv: in-place receives complete "
                   "through Context::wait_in_place, and only they do");
  Message msg;
  if (!rs.pop_message(key, msg))
    throw SimError("Engine::complete_recv: no matching message");

  --rs.inbox_count;

  {
    // The message is consumed either way: its chunk goes back to the
    // sender's arena on every exit — after the bytes are read, or before a
    // size error surfaces — or the arena pins it forever.
    struct Release {
      util::Arena::Chunk* chunk;
      ~Release() {
        if (chunk != nullptr) util::Arena::release(chunk);
      }
    } release{msg.chunk};
    const std::span<const std::byte> bytes(msg.data, msg.size);
    if (req.in_place_) {
      if (msg.size != req.bytes_)
        throw SimError(
            "Engine::complete_recv: in-place receive on channel ctx=" +
            std::to_string(key.ctx) + " " + std::to_string(key.src) + "->" +
            std::to_string(key.dst) + " tag=" + std::to_string(key.tag) +
            " got " + std::to_string(msg.size) + "B, declared " +
            std::to_string(req.bytes_) + "B");
      consume(bytes);
    } else {
      if (msg.size > req.rbuf_.size())
        throw SimError("Engine::complete_recv: message truncated (payload " +
                       std::to_string(msg.size) + "B > buffer " +
                       std::to_string(req.rbuf_.size()) + "B)");
      if (msg.size > 0) std::memcpy(req.rbuf_.data(), msg.data, msg.size);
    }
  }
  req.bytes_ = msg.size;

  double& clk = clocks_[key.dst];
  clk = std::max(clk, msg.arrival) + model_.recv_overhead(rs.inbox_count);
  req.started_ = false;
}

int Engine::next_coll_tag(const Comm& comm) {
  // Reserve a high tag range for internal collective traffic; user tags
  // must stay below kCollTagBase.
  constexpr int kCollTagBase = 1 << 28;
  constexpr int kCollTagRange = 1 << 27;
  auto& tags = rank_[comm.global(comm.rank())].coll_tags;
  const int seq = tags[comm.id()]++;
  return kCollTagBase + (seq % kCollTagRange);
}

int Engine::next_split_round(const Comm& comm) {
  auto& rounds = rank_[comm.global(comm.rank())].split_rounds;
  return rounds[comm.id()]++;
}

std::shared_ptr<const CommData> Engine::get_or_create_comm(
    std::uint32_t parent_ctx, int round, int color,
    const std::vector<int>& members_global) {
  if (color < 0) throw SimError("get_or_create_comm: color must be >= 0");
  const auto key = std::make_tuple(parent_ctx, round, color);
  // Ranks of one phase may create the same communicator concurrently; the
  // winner under the lock assigns the ctx_id.  ctx_ids are identities only
  // — no simulated cost or schedule decision reads their numeric value —
  // so the winner's thread-dependence cannot break determinism.
  util::MutexLock lk(comm_mu_);
  auto it = comm_cache_.find(key);
  if (it != comm_cache_.end()) {
    if (it->second->members != members_global)
      throw SimError("get_or_create_comm: member mismatch across ranks");
    return it->second;
  }
  auto data = std::make_shared<CommData>();
  data->ctx_id = next_ctx_id_++;
  data->members = members_global;
  comm_cache_.emplace(key, data);
  return data;
}

}  // namespace simmpi
