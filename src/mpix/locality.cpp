/// \file locality.cpp
/// \brief Locality-aware persistent neighbor alltoallv (Algorithms 4-6).
///
/// Communication is split into four phases (paper Section 3.2):
///   l — fully local: source and destination share a region (direct p2p);
///   s — initial redistribution: each source forwards its remote-bound
///       values to the region's designated leader per destination region;
///   g — one inter-region message per (source region, destination region)
///       pair, from the sending leader to the receiving leader;
///   r — final redistribution from the receiving leader to destinations.
///
/// The implementation is split in two halves matching the public API:
///
///  * `impl::build_locality_plan` (collective) computes every routing
///    decision — gather/scatter copy-run lists, staging layouts, leader
///    assignments — from metadata shared inside each region plus a
///    root-to-root handshake, and stores them in a buffer-free
///    `LocalityPlan`.  Everything that reads the metadata is decided
///    before the handshake, and the metadata is freed before the rank
///    suspends again; each rank lays out only the region pairs it leads.
///    Runs are coalesced as the values are enumerated, so no per-value
///    map is ever built;
///  * `impl::bind_locality` (purely local) attaches payload buffers and
///    fresh message channels to a plan, scaling all value offsets by the
///    arguments' `element_size`.
///
/// start/wait only move payload, one memcpy per run.  The s and r phases
/// are `StagedPhase`s run by `detail::BoundPhase`, the driver that Bruck's
/// fill and deliver share: a send gathers straight into its arena payload
/// and a receive scatters straight out of the sender's, so no value is
/// copied twice on the host.  With `Method::locality_dedup`, values
/// carrying the same user-supplied index cross each region boundary once
/// (Section 3.3).

#include <algorithm>

#include "mpix/detail.hpp"
#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"
#include "util/flat_map.hpp"

namespace mpix {

namespace coll = simmpi::coll;

namespace {

using detail::Edge;
using detail::PairLayout;
using simmpi::Comm;
using simmpi::Context;
using simmpi::Task;

struct LocalityNeighbor final : NeighborAlltoallv {
  AlltoallvArgs args;
  std::shared_ptr<const LocalityPlan> routing;
  std::vector<std::byte> s_stage, g_stage;
  impl::ChannelSet l;  // direct user-buffer p2p
  impl::ChannelSet g;  // direct stage-buffer p2p, the only network phase
  detail::BoundPhase s, r;  // staged in place

  Task<> start(Context& ctx) override {
    // Fully local traffic goes out immediately (Algorithm 5).
    l.start(ctx);
    // Initial redistribution: start AND complete before inter-region.
    co_await s.run(ctx, args.sendbuf, s_stage);
    // Inter-region messages.
    g.start(ctx);
  }

  Task<> wait(Context& ctx) override {
    // Complete fully local and inter-region traffic (Algorithm 6).
    co_await l.finish(ctx);
    co_await g.finish(ctx);
    // Final redistribution.
    co_await r.run(ctx, g_stage, args.recvbuf);
  }

  NeighborStats stats() const override { return routing->stats; }
  std::shared_ptr<const PlanBase> plan() const override { return routing; }
};

/// Stable sort of (gid, value position) pairs by gid: equal gids keep their
/// enumeration order.  Each dedup run list below is read off one such
/// sort.
void sort_by_gid(std::vector<std::pair<gidx, int>>& v) {
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
}

/// A region pair whose inter-region message this rank sends or receives.
struct LedPair {
  int region;   ///< the peer region
  long offset;  ///< the pair's block in the staging buffer, in values
  long total;   ///< values in the pair's message
};

/// What a plan build still needs once the region's metadata is freed: the
/// root handshake's leader tables and the g phase's led pairs.
struct RegionRoutes {
  util::FlatMap<int, int> out_leader_core, in_leader_core;  ///< region->core
  std::vector<LedPair> led_out, led_in;  ///< ascending region ids
  std::size_t edges = 0;                 ///< region edges parsed, both ways
};

/// Every routing decision that reads the region's metadata: leader
/// assignment, the led pairs' layouts, and the s- and r-phase run lists
/// and staging sizes (written to `plan`).  The parsed edges view `md`,
/// which is taken by value and so freed on return — before the caller's
/// root handshake suspends, so the members of a region do not all hold
/// their copies at once.  Layouts are built only for the pairs this rank
/// leads: nobody else reads them.  `lpt` picks the leader assignment (see
/// Options::lpt_balance).
RegionRoutes route_region(LocalityPlan& plan, std::vector<long long> md,
                          const simmpi::DistGraph& graph,
                          const AlltoallvArgs& args, const Comm& rc,
                          std::span<const int> g2l, bool lpt) {
  const bool dedup = plan.dedup;
  const Comm& comm = graph.comm;
  const auto& machine = comm.engine().machine();
  const int me = comm.rank();
  const int nlocal = rc.size();
  const int my_core = rc.rank();
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  auto core_to_local = [&](int core) { return g2l[rc.global(core)]; };
  const int my_region = region_of(me);

  util::FlatMap<int, int> dst_index, src_index;
  for (std::size_t i = 0; i < graph.destinations.size(); ++i)
    dst_index[graph.destinations[i]] = static_cast<int>(i);
  for (std::size_t i = 0; i < graph.sources.size(); ++i)
    src_index[graph.sources[i]] = static_cast<int>(i);

  std::vector<Edge> out_edges, in_edges;
  detail::parse_edges(md, dedup, out_edges, in_edges);
  RegionRoutes routes;
  routes.edges = out_edges.size() + in_edges.size();

  // Group remote traffic by peer region (sorted FlatMap => ascending region
  // ids, identical on every member since the metadata is identical).
  util::FlatMap<int, std::vector<const Edge*>> out_pairs, in_pairs;
  for (const auto& e : out_edges) {
    const int q = region_of(e.dst);
    if (q != my_region) out_pairs[q].push_back(&e);
  }
  for (const auto& e : in_edges) {
    const int rr = region_of(e.src);
    if (rr != my_region) in_pairs[rr].push_back(&e);
  }

  // ---- leader assignment ---------------------------------------------------
  std::vector<std::pair<int, long>> out_loads, in_loads;
  for (const auto& [q, v] : out_pairs) {
    long t = 0;
    for (const Edge* e : v) t += e->count;
    out_loads.emplace_back(q, t);
  }
  for (const auto& [rr, v] : in_pairs) {
    long t = 0;
    for (const Edge* e : v) t += e->count;
    in_loads.emplace_back(rr, t);
  }
  const auto out_assign = detail::assign_leaders(out_loads, nlocal, lpt);
  const auto in_assign = detail::assign_leaders(in_loads, nlocal, lpt);
  for (std::size_t i = 0; i < out_loads.size(); ++i)
    routes.out_leader_core[out_loads[i].first] = out_assign[i];
  for (std::size_t i = 0; i < in_loads.size(); ++i)
    routes.in_leader_core[in_loads[i].first] = in_assign[i];

  // ---- layouts and staging blocks of the led pairs -------------------------
  std::vector<PairLayout> out_layouts, in_layouts;  // aligned with led_out/in
  auto lead = [&](const auto& pairs, const util::FlatMap<int, int>& leader,
                  std::vector<LedPair>& led, std::vector<PairLayout>& lays) {
    long total = 0;
    for (const auto& [region, core] : leader) {
      if (core != my_core) continue;
      lays.push_back(detail::pair_layout(*pairs.find(region), dedup));
      led.push_back({region, total, lays.back().total});
      total += lays.back().total;
    }
    return total;
  };
  plan.s_stage_values =
      lead(out_pairs, routes.out_leader_core, routes.led_out, out_layouts);
  plan.g_stage_values =
      lead(in_pairs, routes.in_leader_core, routes.led_in, in_layouts);

  // The s-phase message from `src` to this leader: its values in the pairs
  // this rank leads, message position -> s_stage position.
  auto staged_from = [&](int src) {
    StagedPhase::Msg m{.peer = src};
    for (std::size_t p = 0; p < routes.led_out.size(); ++p) {
      const LedPair& led = routes.led_out[p];
      const PairLayout& lay = out_layouts[p];
      auto take = [&](long offset, long len) {
        detail::push_run(m.runs, m.values, led.offset + offset, len);
        m.values += len;
      };
      if (!dedup) {
        const auto& pair = *out_pairs.find(led.region);
        for (std::size_t e = 0; e < pair.size(); ++e)
          if (pair[e]->src == src)
            take(lay.segments[e], pair[e]->count);
      } else {
        for (const auto& blk : lay.src_blocks)
          if (blk.src == src)
            take(blk.offset, static_cast<long>(blk.gids.size()));
      }
    }
    return m;
  };

  // ---- s phase: source side ------------------------------------------------
  for (int L = 0; L < nlocal; ++L) {
    StagedPhase::Msg m;
    for (const auto& [q, core] : routes.out_leader_core) {
      if (core != L) continue;
      if (!dedup) {
        for (const Edge* e : *out_pairs.find(q)) {
          if (e->src != me) continue;
          const int i = *dst_index.find(e->dst);
          detail::push_run(m.runs, args.sdispls[i], m.values, e->count);
          m.values += e->count;
        }
      } else {
        // Unique gids this rank contributes to Q, each gathered from its
        // first occurrence in the send buffer (keep-first, gid-ascending).
        std::vector<std::pair<gidx, int>> occurrences;
        for (const Edge* e : *out_pairs.find(q)) {
          if (e->src != me) continue;
          const int i = *dst_index.find(e->dst);
          for (int k = 0; k < e->count; ++k) {
            const int pos = args.sdispls[i] + k;
            occurrences.emplace_back(args.send_idx[pos], pos);
          }
        }
        sort_by_gid(occurrences);
        for (std::size_t j = 0; j < occurrences.size(); ++j)
          if (j == 0 || occurrences[j].first != occurrences[j - 1].first)
            detail::push_run(m.runs, occurrences[j].second, m.values++, 1);
      }
    }
    if (m.values == 0) continue;
    if (L == my_core) {
      plan.s.self = detail::compose_runs(m.runs, staged_from(me).runs);
    } else {
      ++plan.stats.local_msgs;
      plan.stats.local_values += m.values;
      m.peer = core_to_local(L);
      plan.s.sends.push_back(std::move(m));
    }
  }

  // ---- s phase: leader side ------------------------------------------------
  if (!routes.led_out.empty()) {
    for (int core = 0; core < nlocal; ++core) {
      const int src = core_to_local(core);
      if (src == me) continue;
      StagedPhase::Msg m = staged_from(src);
      if (m.values > 0) plan.s.recvs.push_back(std::move(m));
    }
  }

  // ---- r phase: leader side ------------------------------------------------
  StagedPhase::Msg self_gather;  // the message I would send myself
  if (!routes.led_in.empty()) {
    for (int core = 0; core < nlocal; ++core) {
      const int d = core_to_local(core);
      StagedPhase::Msg m;
      for (std::size_t p = 0; p < routes.led_in.size(); ++p) {
        const auto& pair = *in_pairs.find(routes.led_in[p].region);
        const PairLayout& lay = in_layouts[p];
        const long block = routes.led_in[p].offset;
        for (std::size_t e = 0; e < pair.size(); ++e) {
          if (pair[e]->dst != d) continue;
          if (!dedup) {
            detail::push_run(m.runs, block + lay.segments[e], m.values,
                             pair[e]->count);
            m.values += pair[e]->count;
          } else {
            const auto& src_block = lay.block(pair[e]->src);
            for (gidx gid : detail::unique_sorted(pair[e]->gids))
              detail::push_run(m.runs, block + src_block.find(gid),
                               m.values++, 1);
          }
        }
      }
      if (m.values == 0) continue;
      if (d == me) {
        self_gather = std::move(m);
      } else {
        ++plan.stats.local_msgs;
        plan.stats.local_values += m.values;
        m.peer = d;
        plan.r.sends.push_back(std::move(m));
      }
    }
  }

  // ---- r phase: destination side -------------------------------------------
  for (int core = 0; core < nlocal; ++core) {
    StagedPhase::Msg m;
    for (const auto& [rr, lcore] : routes.in_leader_core) {
      if (lcore != core) continue;
      for (const Edge* e : *in_pairs.find(rr)) {
        if (e->dst != me) continue;
        const int i = *src_index.find(e->src);
        if (!dedup) {
          detail::push_run(m.runs, m.values, args.rdispls[i], e->count);
          m.values += e->count;
        } else {
          // The leader sends the segment's unique gids in ascending order;
          // every position carrying a gid reads that gid's value.
          std::vector<std::pair<gidx, int>> occurrences;
          for (int k = 0; k < e->count; ++k) {
            const int pos = args.rdispls[i] + k;
            occurrences.emplace_back(args.recv_idx[pos], pos);
          }
          sort_by_gid(occurrences);
          long u = -1;  // index of the current gid among the unique ones
          for (std::size_t j = 0; j < occurrences.size(); ++j) {
            if (j == 0 || occurrences[j].first != occurrences[j - 1].first) ++u;
            detail::push_run(m.runs, m.values + u, occurrences[j].second, 1);
          }
          m.values += u + 1;
        }
      }
    }
    if (m.values == 0) continue;
    if (core == my_core) {
      // I am my own in-leader: read straight from the g_stage positions
      // the leader side would have gathered.
      plan.r.self = detail::compose_runs(self_gather.runs, m.runs);
    } else {
      m.peer = core_to_local(core);
      plan.r.recvs.push_back(std::move(m));
    }
  }
  return routes;
}

}  // namespace

Task<std::shared_ptr<const LocalityPlan>> impl::build_locality_plan(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    bool dedup, bool lpt_balance) {
  detail::validate_args(graph, args, dedup);
  detail::reject_duplicate_edges(graph);
  const Comm& comm = graph.comm;
  const auto& machine = ctx.engine().machine();

  auto plan = std::make_shared<LocalityPlan>();
  plan->dedup = dedup;
  plan->binding_fingerprint = detail::binding_fingerprint(comm, machine);
  plan->destinations = graph.destinations;
  plan->sources = graph.sources;
  plan->sendcounts = args.sendcounts;
  plan->sdispls = args.sdispls;
  plan->recvcounts = args.recvcounts;
  plan->rdispls = args.rdispls;
  if (dedup) {
    auto si = args.send_idx.first(args.send_values());
    auto ri = args.recv_idx.first(args.recv_values());
    plan->send_idx.assign(si.begin(), si.end());
    plan->recv_idx.assign(ri.begin(), ri.end());
  }

  const int me = comm.rank();
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  const int my_region = region_of(me);

  const int tag_hs = ctx.engine().next_coll_tag(comm);

  // ---- l phase: straight from this rank's own arguments ------------------
  for (std::size_t i = 0; i < graph.destinations.size(); ++i) {
    const int d = graph.destinations[i];
    if (region_of(d) != my_region) continue;
    plan->l_sends.push_back({d, args.sdispls[i], args.sendcounts[i]});
    ++plan->stats.local_msgs;
    plan->stats.local_values += args.sendcounts[i];
  }
  for (std::size_t i = 0; i < graph.sources.size(); ++i) {
    const int s = graph.sources[i];
    if (region_of(s) != my_region) continue;
    plan->l_recvs.push_back({s, args.rdispls[i], args.recvcounts[i]});
  }

  // ---- metadata exchange within the region --------------------------------
  Comm rc = co_await coll::split_by_region(ctx, comm);
  const int nlocal = rc.size();
  auto blob = detail::serialize_edges(graph, args, dedup);
  auto all_md = co_await coll::allgatherv<long long>(ctx, rc, std::move(blob));
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(all_md.size()));

  // ---- rank translation tables --------------------------------------------
  auto members = comm.members();
  std::vector<int> g2l(machine.num_ranks(), -1);
  for (int i = 0; i < comm.size(); ++i) g2l[members[i]] = i;
  util::FlatMap<int, int> region_root;  // region -> smallest comm-local member
  for (int i = 0; i < comm.size(); ++i) {
    const int reg = machine.region_of(members[i]);
    if (int* root = region_root.find(reg))
      *root = std::min(*root, i);
    else
      region_root[reg] = i;
  }
  auto core_to_local = [&](int core) { return g2l[rc.global(core)]; };

  // ---- s/r routing; the region's metadata is freed before the handshake ----
  const RegionRoutes routes =
      route_region(*plan, std::move(all_md), graph, args, rc, g2l,
                   lpt_balance);
  ctx.compute(impl::kSetupComputePerWord * comm.size());

  // ---- root handshake: learn peer-region leaders ---------------------------
  // For pair (A -> B): A's root tells B's root A's send leader; B's root
  // tells A's root B's receive leader.  Message ordering per root channel is
  // deterministic (outbound loop before inbound loop on both ends).
  util::FlatMap<int, int> g_dst_leader;  // Q  -> comm-local recv leader in Q
  util::FlatMap<int, int> g_src_leader;  // R' -> comm-local send leader in R'
  // Both leader tables are identical on every member, so each knows the
  // broadcast's size: a count word and a (region, leader) pair per entry.
  std::vector<long long> hs_blob(
      2 + 2 * (routes.in_leader_core.size() + routes.out_leader_core.size()));
  if (me == *region_root.find(my_region)) {
    for (const auto& [q, core] : routes.out_leader_core)
      co_await coll::send_val<long long>(
          ctx, comm, *region_root.find(q), core_to_local(core), tag_hs);
    for (const auto& [rr, core] : routes.in_leader_core)
      co_await coll::send_val<long long>(
          ctx, comm, *region_root.find(rr), core_to_local(core), tag_hs);
    for (const auto& [rr, core] : routes.in_leader_core)
      g_src_leader[rr] = static_cast<int>(co_await coll::recv_val<long long>(
          ctx, comm, *region_root.find(rr), tag_hs));
    for (const auto& [q, core] : routes.out_leader_core)
      g_dst_leader[q] = static_cast<int>(co_await coll::recv_val<long long>(
          ctx, comm, *region_root.find(q), tag_hs));
    std::size_t pos = 0;
    hs_blob[pos++] = static_cast<long long>(g_src_leader.size());
    for (const auto& [rr, l] : g_src_leader) {
      hs_blob[pos++] = rr;
      hs_blob[pos++] = l;
    }
    hs_blob[pos++] = static_cast<long long>(g_dst_leader.size());
    for (const auto& [q, l] : g_dst_leader) {
      hs_blob[pos++] = q;
      hs_blob[pos++] = l;
    }
  }
  co_await coll::bcast(ctx, rc, hs_blob, 0);
  if (me != *region_root.find(my_region)) {
    std::size_t pos = 0;
    const long long nin = hs_blob[pos++];
    for (long long i = 0; i < nin; ++i) {
      const int rr = static_cast<int>(hs_blob[pos++]);
      g_src_leader[rr] = static_cast<int>(hs_blob[pos++]);
    }
    const long long nout = hs_blob[pos++];
    for (long long i = 0; i < nout; ++i) {
      const int q = static_cast<int>(hs_blob[pos++]);
      g_dst_leader[q] = static_cast<int>(hs_blob[pos++]);
    }
  }

  // ---- g phase --------------------------------------------------------------
  for (const LedPair& p : routes.led_out) {
    const int peer = *g_dst_leader.find(p.region);
    plan->g_sends.push_back({peer, p.offset, p.total});
    ++plan->stats.global_msgs;
    plan->stats.global_values += p.total;
    plan->stats.max_global_msg_values =
        std::max(plan->stats.max_global_msg_values, p.total);
    detail::count_link_crossing(machine, comm.global(me), comm.global(peer),
                                plan->stats);
  }
  for (const LedPair& p : routes.led_in)
    plan->g_recvs.push_back({*g_src_leader.find(p.region), p.offset, p.total});

  // Charge the routing computation (run-list building) to this rank.
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(plan->s_stage_values +
                                  plan->g_stage_values + routes.edges +
                                  nlocal));
  co_return plan;
}

std::unique_ptr<NeighborAlltoallv> impl::bind_locality(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const LocalityPlan> plan, const Options& opts) {
  const Comm& comm = graph.comm;
  const std::size_t es = args.element_size;
  const LocalityPlan& p = *plan;

  auto obj = std::make_unique<LocalityNeighbor>();
  obj->args = std::move(args);
  obj->routing = plan;
  obj->s_stage.resize(p.s_stage_values * es);
  obj->g_stage.resize(p.g_stage_values * es);

  const int tag_l = ctx.engine().next_coll_tag(comm);
  const int tag_s = ctx.engine().next_coll_tag(comm);
  const int tag_g = ctx.engine().next_coll_tag(comm);
  const int tag_r = ctx.engine().next_coll_tag(comm);
  // Minted unconditionally when reliability is on so every rank's tag
  // sequence stays uniform, leaders or not.
  const int tag_gack =
      opts.reliability.enabled ? ctx.engine().next_coll_tag(comm) : -1;

  obj->l = impl::ChannelSet(comm, opts.reliability, tag_gack);
  obj->l.declare(p.l_sends, obj->args.sendbuf, p.l_recvs, obj->args.recvbuf,
                 tag_l, es);
  obj->g = impl::ChannelSet(comm, opts.reliability, tag_gack);
  obj->g.declare(p.g_sends, obj->s_stage, p.g_recvs, obj->g_stage, tag_g, es);

  // Staged messages move in place: no per-message buffer is bound.
  obj->s = detail::BoundPhase(p.s, comm, tag_s, es);
  obj->r = detail::BoundPhase(p.r, comm, tag_r, es);

  // Charge the buffer binding work (staging allocation + channel setup).
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(p.s_stage_values + p.g_stage_values));
  return obj;
}

}  // namespace mpix
