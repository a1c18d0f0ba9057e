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
///             every resident chunk whose remaining distance has bit k
///             set.  Chunks are never split; arriving chunks either join
///             the resident set at distance d - 2^k or, at distance 0,
///             the final set.  Each region therefore sends exactly one
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
/// every rank), chunks are enumerated in fixed (distance, arrival) order,
/// and all four channels use collective tags minted in the same order on
/// every rank — so payload movement is identical at every simulator
/// width.  Every rank replays the full R-region rotation symbolically
/// during plan construction; only its own region's gather/keep/merge runs
/// are recorded.

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

}  // namespace

Task<std::shared_ptr<const BruckPlan>> impl::build_bruck_plan(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args) {
  detail::validate_args(graph, args, /*need_idx=*/false);
  const Comm& comm = graph.comm;
  const auto& machine = ctx.engine().machine();
  const int p = comm.size();
  const int me = comm.rank();

  auto plan = std::make_shared<BruckPlan>();
  plan->binding_fingerprint = detail::binding_fingerprint(comm, machine);
  plan->sendcounts = args.sendcounts;
  plan->sdispls = args.sdispls;
  plan->recvcounts = args.recvcounts;
  plan->rdispls = args.rdispls;

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
    ++plan->stats.local_msgs;
    plan->stats.local_values += args.sendcounts[j];
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
  // the sender's region gives T[g][q], the basis of the shared symbolic
  // rotation below.
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

  if (nregions == 1) co_return plan;  // everything is intra-region

  // ---- symbolic rotation (identical replay on every rank) ------------------
  int nrounds = 0;
  while ((1 << nrounds) < nregions) ++nrounds;

  struct SimChunk {
    int origin;         // region whose data this is
    long long size;     // values
    long long off;      // offset in the holder's resident buffer (-1: in flight)
    long long msg_off;  // offset in the current round's message
  };
  std::vector<std::vector<SimChunk>> fin(region_ids.size());  // arrival order
  std::vector<std::vector<std::vector<SimChunk>>> blocks(region_ids.size());
  for (int g = 0; g < nregions; ++g) {
    blocks[g].resize(region_ids.size());
    for (int d = 1; d < nregions; ++d)
      blocks[g][d].push_back({g, traffic(g, (g + d) % nregions), -1, -1});
  }
  // Resident layout of a region: final chunks in arrival order, then the
  // pending blocks by ascending remaining distance, chunks in list order.
  auto layout_region = [&](int g) -> long long {
    long long off = 0;
    for (auto& c : fin[g]) {
      c.off = off;
      off += c.size;
    }
    for (int d = 1; d < nregions; ++d)
      for (auto& c : blocks[g][d]) {
        c.off = off;
        off += c.size;
      }
    return off;
  };
  long long resident_max = 0;
  for (int g = 0; g < nregions; ++g) {
    const long long tot = layout_region(g);
    if (g == gi) resident_max = tot;
  }
  std::vector<long long> chunk_off0(region_ids.size(), 0);  // epoch-0, my region
  for (int d = 1; d < nregions; ++d) chunk_off0[d] = blocks[gi][d][0].off;

  for (int k = 0; k < nrounds; ++k) {
    const int step = 1 << k;
    BruckPlan::Round round;
    round.send_peer = members[(gi + step) % nregions][0];
    round.recv_peer = members[(gi - step + nregions) % nregions][0];

    // Message layout: moving chunks by ascending distance, list order.
    std::vector<long long> msg_size(region_ids.size(), 0);
    for (int g = 0; g < nregions; ++g) {
      long long mo = 0;
      for (int d = 1; d < nregions; ++d) {
        if (!((d >> k) & 1)) continue;
        for (auto& c : blocks[g][d]) {
          c.msg_off = mo;
          mo += c.size;
        }
      }
      msg_size[g] = mo;
    }
    round.send_values = msg_size[gi];
    round.recv_values = msg_size[(gi - step + nregions) % nregions];
    plan->round_send_max = std::max(plan->round_send_max,
                                    static_cast<long>(round.send_values));
    plan->round_recv_max = std::max(plan->round_recv_max,
                                    static_cast<long>(round.recv_values));
    for (int d = 1; d < nregions; ++d) {
      if (!((d >> k) & 1)) continue;
      for (const auto& c : blocks[gi][d])
        detail::push_run(round.gather, c.off, c.msg_off, c.size);
    }

    // Move the chunks: one hop of 2^k, remaining distance d - 2^k.
    std::vector<std::vector<std::pair<int, SimChunk>>> moved(
        region_ids.size());
    for (int g = 0; g < nregions; ++g) {
      const int dst = (g + step) % nregions;
      for (int d = 1; d < nregions; ++d) {
        if (!((d >> k) & 1)) continue;
        for (auto& c : blocks[g][d]) {
          SimChunk arriving = c;
          arriving.off = -1;
          moved[dst].emplace_back(d - step, arriving);
        }
        blocks[g][d].clear();
      }
    }
    for (int g = 0; g < nregions; ++g)
      for (auto& [dn, c] : moved[g]) {
        if (dn == 0)
          fin[g].push_back(c);
        else
          blocks[g][dn].push_back(c);
      }

    // Re-pack: record my region's keep (still resident) and merge
    // (arriving) runs against the new layout.
    for (int g = 0; g < nregions; ++g) {
      if (g != gi) {
        layout_region(g);
        continue;
      }
      long long off = 0;
      auto place = [&](SimChunk& c) {
        if (c.off >= 0)
          detail::push_run(round.keep, c.off, off, c.size);
        else
          detail::push_run(round.merge, c.msg_off, off, c.size);
        c.off = off;
        off += c.size;
      };
      for (auto& c : fin[gi]) place(c);
      for (int d = 1; d < nregions; ++d)
        for (auto& c : blocks[gi][d]) place(c);
      resident_max = std::max(resident_max, off);
    }

    if (plan->is_leader) {
      ++plan->stats.global_msgs;
      plan->stats.global_values += round.send_values;
      plan->stats.max_global_msg_values =
          std::max(plan->stats.max_global_msg_values,
                   static_cast<long>(round.send_values));
      detail::count_link_crossing(machine, comm.global(comm.rank()),
                                  comm.global(round.send_peer), plan->stats);
      plan->rounds.push_back(std::move(round));
    }
  }
  plan->resident_values = static_cast<long>(resident_max);
  if (static_cast<int>(fin[gi].size()) != nregions - 1)
    throw SimError("alltoallv bruck: internal rotation error");

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
    ++plan->stats.local_msgs;
    plan->stats.local_values += f.values;
    plan->fill.sends.push_back(std::move(f));
  }

  // ---- deliver: leader resident buffer -> members' recvbufs ----------------
  // A final chunk from origin s keeps its epoch-0 interior, so member m's
  // share is one slice per sender rank k in s: row offset sum over earlier
  // senders, column offset sum over earlier members.
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
    for (const auto& c : fin[gi]) {
      long long rowoff = 0;
      for (int k : members[c.origin]) {
        detail::push_run(plan->deliver.self, c.off + rowoff + col_in(k, 0),
                         args.rdispls[k], rcount(k, 0));
        rowoff += row_in(k);
      }
    }
    for (int m = 1; m < nlocal; ++m) {
      StagedPhase::Msg d{.peer = mem[m]};
      for (const auto& c : fin[gi]) {
        long long rowoff = 0;
        for (int k : members[c.origin]) {
          detail::push_run(d.runs, c.off + rowoff + col_in(k, m), d.values,
                           rcount(k, m));
          d.values += rcount(k, m);
          rowoff += row_in(k);
        }
      }
      ++plan->stats.local_msgs;
      plan->stats.local_values += d.values;
      plan->deliver.sends.push_back(std::move(d));
    }
  } else {
    StagedPhase::Msg d{.peer = mem[0]};
    for (const auto& c : fin[gi]) {
      for (int k : members[c.origin]) {
        detail::push_run(d.runs, d.values, args.rdispls[k],
                         args.recvcounts[k]);
        d.values += args.recvcounts[k];
      }
    }
    plan->deliver.recvs.push_back(std::move(d));
  }

  // Charge the symbolic rotation and layout computation to this rank.
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

  // Charge the buffer binding work (staging allocation + channel setup),
  // including a member's own fill and deliver messages (none on leaders).
  long member_values = 0;
  for (const auto& m : p.fill.sends) member_values += m.values;
  for (const auto& m : p.deliver.recvs) member_values += m.values;
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(2 * p.resident_values + member_values));
  return obj;
}

}  // namespace mpix
