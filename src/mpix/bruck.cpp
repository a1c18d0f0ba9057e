/// \file bruck.cpp
/// \brief Locality-aware log-P Bruck dense alltoallv
/// (`AlltoallMethod::bruck`) — the algorithm the reference repository
/// left as a TODO.
///
/// Regions take the role Bruck's algorithm gives to ranks.  Intra-region
/// traffic never enters the rotation (direct p2p, like the neighbor
/// locality method's l phase).  Remote-bound traffic of the whole region
/// is aggregated on one leader and rotated region-by-region:
///
///   fill    — each member ships all its remote-bound values to the
///             region leader in one message; the leader assembles them
///             into a "resident" buffer ordered by distance d = 1..R-1
///             toward destination region (g + d) mod R;
///   rounds  — ⌈log2 R⌉ Bruck rounds: in round k each leader forwards,
///             in one message to the leader of region (g + 2^k) mod R,
///             every resident chunk whose distance d has bit k set.
///             Chunks are never split and keep their d, so after the last
///             round region g holds chunk d of region g - d: the values
///             bound for g.  Each region therefore sends exactly one
///             inter-region message per round: R·⌈log2 R⌉ total, versus
///             R·(R-1) for node_aggregated and O(P^2) for standard;
///   deliver — the leader scatters the R-1 arrived chunks to its members
///             (one message each) and into its own recvbuf.
///
/// Everything is precomputed into a `BruckPlan` of value-run copy lists;
/// fill and deliver are `StagedPhase`s, run by the same
/// `detail::BoundPhase` driver as the neighbor locality method's s and r
/// phases.
/// Determinism: the rotation schedule is a pure function of the
/// region-level traffic matrix T (exchanged collectively, identical on
/// every rank), chunks are laid out in ascending d, and all four channels
/// use collective tags minted in the same order on every rank — so
/// payload movement is identical at every simulator width.  No rank
/// simulates the rotation: Bruck's index rule (Bruck et al., "Efficient
/// Algorithms for All-to-All Communications in Multiport Message-Passing
/// Systems", IEEE TPDS 8(11), 1997) names the origin of every chunk a
/// region holds after each round, so a rank lays out its own region's
/// resident buffer, epoch by epoch, straight from T in O(R·log R).

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "mpix/detail.hpp"
#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"

namespace mpix {

namespace coll = simmpi::coll;

namespace {

using simmpi::Comm;
using simmpi::Context;
using simmpi::SimError;
using simmpi::Task;

struct BruckAlltoallv final : NeighborAlltoallv {
  AlltoallvArgs args;
  std::shared_ptr<const BruckPlan> routing;

  impl::ChannelSet l;  // direct user-buffer p2p
  detail::BoundPhase fill, deliver;  // staged in place

  // Leaders of a multi-region communicator only.
  std::vector<std::byte> resident_a, resident_b;
  std::vector<std::byte> round_send, round_recv;
  // One send + one receive per rotation round.  Leaders of adjacent regions
  // can share a node, so the set picks plain or wrapped per direction.
  std::vector<impl::ChannelSet> round_chans;

  Task<> start(Context& ctx) override {
    // Intra-region traffic goes out immediately.  Then the leader
    // assembles its resident buffer: the members' remote-bound values
    // plus its own, ordered by distance toward their destination region.
    l.start(ctx);
    co_await fill.run(ctx, args.sendbuf, resident_a);
  }

  Task<> wait(Context& ctx) override {
    const std::size_t es = args.element_size;
    co_await l.finish(ctx);
    // The rotation (leaders only).  Rounds are sequential; the resident
    // buffer ping-pongs so keep/merge never overlap their sources.
    std::span<std::byte> cur = resident_a, nxt = resident_b;
    for (std::size_t k = 0; k < round_chans.size(); ++k) {
      const auto& r = routing->rounds[k];
      detail::copy_runs(cur, round_send, r.gather, es);
      round_chans[k].start(ctx);
      co_await round_chans[k].finish(ctx);
      detail::copy_runs(cur, nxt, r.keep, es);
      detail::copy_runs(round_recv, nxt, r.merge, es);
      std::swap(cur, nxt);
    }
    co_await deliver.run(ctx, cur, args.recvbuf);
  }

  NeighborStats stats() const override { return routing->stats; }
  std::shared_ptr<const PlanBase> plan() const override { return routing; }
};

// Message statistics: every send this rank posts, by one rule.
void count_sends(BruckPlan& plan, const Comm& comm) {
  for (const DirectMsg& m : plan.l_sends)
    detail::count_send(plan.stats, comm, m.peer, m.count);
  for (const StagedPhase* phase : {&plan.fill, &plan.deliver})
    for (const StagedPhase::Msg& m : phase->sends)
      detail::count_send(plan.stats, comm, m.peer, m.values);
  for (const BruckPlan::Round& r : plan.rounds)
    detail::count_send(plan.stats, comm, r.send_peer, r.send_values);
}

}  // namespace

Task<std::shared_ptr<const BruckPlan>> impl::build_bruck_plan(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args) {
  const Comm& comm = graph.comm;
  const auto& machine = ctx.engine().machine();
  const int p = comm.size();
  const int me = comm.rank();

  auto plan = std::make_shared<BruckPlan>();

  // ---- region table --------------------------------------------------------
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  std::vector<int> region_ids(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) region_ids[i] = region_of(i);
  std::sort(region_ids.begin(), region_ids.end());
  region_ids.erase(std::unique(region_ids.begin(), region_ids.end()),
                   region_ids.end());
  const int nregions = static_cast<int>(region_ids.size());
  plan->regions = nregions;
  auto region_index = [&](int rid) {
    return static_cast<int>(
        std::lower_bound(region_ids.begin(), region_ids.end(), rid) -
        region_ids.begin());
  };
  std::vector<std::vector<int>> members(region_ids.size());
  for (int i = 0; i < p; ++i)
    members[region_index(region_of(i))].push_back(i);  // comm-rank order
  const int gi = region_index(region_of(me));
  const auto& mem = members[gi];
  const int nlocal = static_cast<int>(mem.size());
  const int my_core = static_cast<int>(
      std::lower_bound(mem.begin(), mem.end(), me) - mem.begin());
  plan->is_leader = my_core == 0;

  // ---- l phase: intra-region traffic straight from the arguments ----------
  for (int j : mem) {
    plan->l_sends.push_back({j, args.sdispls[j], args.sendcounts[j]});
    plan->l_recvs.push_back({j, args.rdispls[j], args.recvcounts[j]});
  }

  // ---- region-internal metadata: every member's counts ---------------------
  Comm rc = co_await coll::split_by_region(ctx, comm);
  {
    // split_by_region orders members by comm rank; the layouts below
    // depend on that, so fail loudly if it ever changes.
    auto cmembers = comm.members();
    std::vector<int> g2l(static_cast<std::size_t>(machine.num_ranks()), -1);
    for (int i = 0; i < p; ++i) g2l[cmembers[i]] = i;
    if (rc.size() != nlocal)
      throw SimError("alltoallv bruck: region communicator size mismatch");
    for (int m = 0; m < nlocal; ++m)
      if (g2l[rc.global(m)] != mem[m])
        throw SimError("alltoallv bruck: region communicator order mismatch");
  }
  std::vector<int> meta_mine(2 * static_cast<std::size_t>(p));
  std::copy(args.sendcounts.begin(), args.sendcounts.begin() + p,
            meta_mine.begin());
  std::copy(args.recvcounts.begin(), args.recvcounts.begin() + p,
            meta_mine.begin() + p);
  auto meta = co_await coll::allgatherv<int>(ctx, rc, std::move(meta_mine));
  ctx.compute(impl::kSetupComputePerWord * static_cast<double>(meta.size()));
  // scount(m, j): values member m of my region sends to comm rank j.
  // rcount(k, m): values member m of my region receives from comm rank k.
  auto scount = [&](int m, int j) -> long long {
    return meta[static_cast<std::size_t>(m) * 2 * p + j];
  };
  auto rcount = [&](int k, int m) -> long long {
    return meta[static_cast<std::size_t>(m) * 2 * p + p + k];
  };

  // ---- region traffic matrix T (identical on every rank) -------------------
  // Each rank publishes its per-destination-region totals; summing rows by
  // the sender's region gives T[g][q], the chunk sizes of the rotation
  // below.
  std::vector<long long> row(static_cast<std::size_t>(nregions), 0);
  for (int j = 0; j < p; ++j)
    row[region_index(region_of(j))] += args.sendcounts[j];
  auto all_rows = co_await coll::allgatherv<long long>(ctx, comm,
                                                       std::move(row));
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(all_rows.size()));
  std::vector<long long> T(static_cast<std::size_t>(nregions) * nregions, 0);
  for (int i = 0; i < p; ++i) {
    const int g = region_index(region_of(i));
    for (int q = 0; q < nregions; ++q)
      T[static_cast<std::size_t>(g) * nregions + q] +=
          all_rows[static_cast<std::size_t>(i) * nregions + q];
  }
  auto traffic = [&](int g, int q) -> long long {
    return T[static_cast<std::size_t>(g) * nregions + q];
  };

  // Cross-check sender-declared totals against what my region's members
  // expect to receive: inconsistent count arrays would otherwise corrupt
  // the rotation layout silently.
  for (int s = 0; s < nregions; ++s) {
    if (s == gi) continue;
    long long expected = 0;
    for (int k : members[s])
      for (int m = 0; m < nlocal; ++m) expected += rcount(k, m);
    if (expected != traffic(s, gi))
      throw SimError(
          "alltoallv bruck: send/recv counts are inconsistent (region " +
          std::to_string(s) + " declares " +
          std::to_string(traffic(s, gi)) + " values toward this region, "
          "receivers expect " + std::to_string(expected) + ")");
  }

  if (nregions == 1) {  // everything is intra-region
    count_sends(*plan, comm);
    co_return plan;
  }

  // ---- rotation: Bruck's index rule ----------------------------------------
  // Chunk d (0 < d < R) of a region carries its values for the region d
  // ahead.  Round k moves every chunk whose d has bit k set 2^k regions
  // ahead, whole, so after e rounds region g holds chunk d of origin
  // g - (d mod 2^e).  Regions keep their chunks in ascending d and send a
  // round's moving chunks in ascending d, so my region's layout at every
  // epoch follows from T.  Only the leader lays it out: a member's fill
  // and deliver messages need just the chunk order.
  int nrounds = 0;
  while ((1 << nrounds) < nregions) ++nrounds;
  auto wrap = [&](int g) { return (g % nregions + nregions) % nregions; };
  // Offsets of my region's chunks after e rounds: chunk d occupies
  // [off[d], off[d + 1]), and off[R] is the resident total.
  auto layout = [&](int e) {
    std::vector<long long> off(static_cast<std::size_t>(nregions) + 1, 0);
    for (int d = 1; d < nregions; ++d) {
      const int origin = wrap(gi - d % (1 << e));
      off[d + 1] = off[d] + traffic(origin, wrap(origin + d));
    }
    return off;
  };
  // My region's chunk offsets before the first and after the last round.
  std::vector<long long> chunk_off0, cur;
  if (plan->is_leader) {
    chunk_off0 = layout(0);
    cur = chunk_off0;
    long long resident_max = cur[nregions];
    for (int k = 0; k < nrounds; ++k) {
      const int step = 1 << k;
      std::vector<long long> next = layout(k + 1);
      BruckPlan::Round round;
      round.send_peer = members[wrap(gi + step)][0];
      round.recv_peer = members[wrap(gi - step)][0];
      for (int d = 1; d < nregions; ++d) {
        const long long held = cur[d + 1] - cur[d];
        if ((d >> k) & 1) {
          detail::push_run(round.gather, cur[d], round.send_values, held);
          round.send_values += held;
          const long long arriving = next[d + 1] - next[d];
          detail::push_run(round.merge, round.recv_values, next[d], arriving);
          round.recv_values += arriving;
        } else {
          detail::push_run(round.keep, cur[d], next[d], held);
        }
      }
      plan->round_send_max = std::max(plan->round_send_max, round.send_values);
      plan->round_recv_max = std::max(plan->round_recv_max, round.recv_values);
      resident_max = std::max(resident_max, next[nregions]);
      cur = std::move(next);
      plan->rounds.push_back(std::move(round));
    }
    plan->resident_values = static_cast<long>(resident_max);
  }

  // ---- fill: members -> leader resident buffer -----------------------------
  // Chunk (distance d) interior: member-major rows [k in g ascending], each
  // row the member's segments toward members of (g + d) mod R, j ascending —
  // the member's natural gather order, so each fill message is one
  // contiguous slice per chunk on both sides.
  std::vector<long long> row_out(static_cast<std::size_t>(nlocal) * nregions,
                                 0);
  for (int m = 0; m < nlocal; ++m)
    for (int q = 0; q < nregions; ++q) {
      if (q == gi) continue;
      long long t = 0;
      for (int j : members[q]) t += scount(m, j);
      row_out[static_cast<std::size_t>(m) * nregions + q] = t;
    }
  auto row_out_of = [&](int m, int q) {
    return row_out[static_cast<std::size_t>(m) * nregions + q];
  };

  if (plan->is_leader) {
    for (int d = 1; d < nregions; ++d) {
      const int q = (gi + d) % nregions;
      long long col = 0;
      for (int j : members[q]) {
        detail::push_run(plan->fill.self, args.sdispls[j], chunk_off0[d] + col,
                         scount(0, j));
        col += scount(0, j);
      }
    }
    for (int m = 1; m < nlocal; ++m) {
      StagedPhase::Msg f{.peer = mem[m]};
      for (int d = 1; d < nregions; ++d) {
        const int q = (gi + d) % nregions;
        long long rowoff = 0;
        for (int mm = 0; mm < m; ++mm) rowoff += row_out_of(mm, q);
        detail::push_run(f.runs, f.values, chunk_off0[d] + rowoff,
                         row_out_of(m, q));
        f.values += row_out_of(m, q);
      }
      plan->fill.recvs.push_back(std::move(f));
    }
  } else {
    StagedPhase::Msg f{.peer = mem[0]};
    for (int d = 1; d < nregions; ++d) {
      const int q = (gi + d) % nregions;
      for (int j : members[q]) {
        detail::push_run(f.runs, args.sdispls[j], f.values,
                         args.sendcounts[j]);
        f.values += args.sendcounts[j];
      }
    }
    plan->fill.sends.push_back(std::move(f));
  }

  // ---- deliver: leader resident buffer -> members' recvbufs ----------------
  // Final chunk d comes from region g - d and keeps its epoch-0 interior,
  // so member m's share is one slice per sender rank k there: row offset
  // sum over earlier senders, column offset sum over earlier members.
  auto row_in = [&](int k) {
    long long t = 0;
    for (int m = 0; m < nlocal; ++m) t += rcount(k, m);
    return t;
  };
  auto col_in = [&](int k, int m) {
    long long t = 0;
    for (int mm = 0; mm < m; ++mm) t += rcount(k, mm);
    return t;
  };
  if (plan->is_leader) {
    for (int d = 1; d < nregions; ++d) {
      long long rowoff = 0;
      for (int k : members[wrap(gi - d)]) {
        detail::push_run(plan->deliver.self, cur[d] + rowoff + col_in(k, 0),
                         args.rdispls[k], rcount(k, 0));
        rowoff += row_in(k);
      }
    }
    for (int m = 1; m < nlocal; ++m) {
      StagedPhase::Msg msg{.peer = mem[m]};
      for (int d = 1; d < nregions; ++d) {
        long long rowoff = 0;
        for (int k : members[wrap(gi - d)]) {
          detail::push_run(msg.runs, cur[d] + rowoff + col_in(k, m),
                           msg.values, rcount(k, m));
          msg.values += rcount(k, m);
          rowoff += row_in(k);
        }
      }
      plan->deliver.sends.push_back(std::move(msg));
    }
  } else {
    StagedPhase::Msg msg{.peer = mem[0]};
    for (int d = 1; d < nregions; ++d) {
      for (int k : members[wrap(gi - d)]) {
        detail::push_run(msg.runs, msg.values, args.rdispls[k],
                         args.recvcounts[k]);
        msg.values += args.recvcounts[k];
      }
    }
    plan->deliver.recvs.push_back(std::move(msg));
  }

  count_sends(*plan, comm);

  // Charge the plan build to this rank.  The cost model prices it as a
  // replay of the whole R-region rotation, R^2 * (ceil(log2 R) + 1) words,
  // plus the O(P) fill and deliver layout.
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(static_cast<long long>(nregions) * nregions *
                                      (nrounds + 1) +
                                  2 * p));
  co_return plan;
}

std::unique_ptr<NeighborAlltoallv> impl::bind_bruck(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const BruckPlan> plan, const Options& opts) {
  const Comm& comm = graph.comm;

  const std::size_t es = args.element_size;
  const BruckPlan& p = *plan;

  auto obj = std::make_unique<BruckAlltoallv>();
  obj->args = std::move(args);
  obj->routing = plan;

  const int tag_l = ctx.engine().next_coll_tag(comm);
  const int tag_f = ctx.engine().next_coll_tag(comm);
  const int tag_b = ctx.engine().next_coll_tag(comm);
  const int tag_d = ctx.engine().next_coll_tag(comm);
  // Minted unconditionally when reliability is on so every rank's tag
  // sequence stays uniform, leaders or not.
  const int tag_back =
      opts.reliability.enabled ? ctx.engine().next_coll_tag(comm) : -1;

  obj->l = impl::ChannelSet(comm, opts.reliability, tag_back);
  obj->l.declare(p.l_sends, obj->args.sendbuf, p.l_recvs, obj->args.recvbuf,
                 tag_l, es);

  obj->fill = detail::BoundPhase(p.fill, comm, tag_f, es);
  obj->deliver = detail::BoundPhase(p.deliver, comm, tag_d, es);
  if (p.is_leader && p.regions > 1) {
    obj->resident_a.resize(static_cast<std::size_t>(p.resident_values) * es);
    obj->resident_b.resize(static_cast<std::size_t>(p.resident_values) * es);
    obj->round_send.resize(static_cast<std::size_t>(p.round_send_max) * es);
    obj->round_recv.resize(static_cast<std::size_t>(p.round_recv_max) * es);
    obj->round_chans.reserve(p.rounds.size());
    for (const auto& r : p.rounds) {
      auto& ch = obj->round_chans.emplace_back(comm, opts.reliability,
                                               tag_back);
      ch.send(std::span<const std::byte>(obj->round_send)
                  .first(static_cast<std::size_t>(r.send_values) * es),
              r.send_peer, tag_b);
      ch.recv(std::span<std::byte>(obj->round_recv)
                  .first(static_cast<std::size_t>(r.recv_values) * es),
              r.recv_peer, tag_b);
    }
  }

  // Charge the buffer binding work (staging allocation + channel setup):
  // the leader's two resident buffers (resident_values is 0 on members,
  // which allocate none) and a member's own fill and deliver messages
  // (none on leaders).
  long member_values = 0;
  for (const auto& m : p.fill.sends) member_values += m.values;
  for (const auto& m : p.deliver.recvs) member_values += m.values;
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(2 * p.resident_values + member_values));
  return obj;
}

}  // namespace mpix
