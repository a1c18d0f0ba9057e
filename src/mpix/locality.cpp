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
///  * `make_locality_plan` (collective) computes every routing decision —
///    gather/scatter index maps, staging layouts, leader assignments — from
///    metadata shared inside each region plus a root-to-root handshake, and
///    stores them in a buffer-free `LocalityPlan`.  Everything that reads
///    the metadata is decided before the handshake, and the metadata is
///    freed before the rank suspends again; each rank lays out only the
///    region pairs it leads;
///  * `impl::bind_locality` (purely local) attaches payload buffers and
///    fresh message channels to a plan, scaling all value offsets by the
///    arguments' `element_size`.
///
/// start/wait only move payload.  With `Method::locality_dedup`, values
/// carrying the same user-supplied index cross each region boundary once
/// (Section 3.3).

#include <algorithm>
#include <cstring>
#include <numeric>

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
using simmpi::Request;
using simmpi::Task;

/// A staged message bound to its persistent buffer and channel.  The index
/// maps live in the (shared) plan; `buf` holds `element_size`-sized values.
struct BoundGather {
  std::span<const int> gather;  ///< source-array value position per value
  std::vector<std::byte> buf;
  Request req;
};
struct BoundScatter {
  std::span<const int> scatter_src;  ///< payload value position
  std::span<const int> scatter_dst;  ///< destination-array value position
  std::vector<std::byte> buf;
  Request req;
};

void gather_into(std::span<const std::byte> src, std::size_t es,
                 std::span<const int> idx, std::span<std::byte> out) {
  for (std::size_t k = 0; k < idx.size(); ++k)
    std::memcpy(out.data() + k * es, src.data() + idx[k] * es, es);
}

/// Value `src[k]` of `from` lands at value position `dst[k]` of `to`: the
/// self copies and the staged receives' scatters.
void copy_values(std::span<const std::byte> from, std::span<const int> src,
                 std::span<std::byte> to, std::span<const int> dst,
                 std::size_t es) {
  for (std::size_t k = 0; k < src.size(); ++k)
    std::memcpy(to.data() + dst[k] * es, from.data() + src[k] * es, es);
}

struct LocalityNeighbor final : NeighborAlltoallv {
  AlltoallvArgs args;
  std::shared_ptr<const LocalityPlan> routing;
  std::vector<std::byte> s_stage, g_stage;
  impl::ChannelSet l;  // direct user-buffer p2p
  impl::ChannelSet g;  // direct stage-buffer p2p, the only network phase
  std::vector<BoundGather> s_sends, r_sends;
  std::vector<BoundScatter> s_recvs, r_recvs;

  Task<> start(Context& ctx) override {
    const std::size_t es = args.element_size;
    // Fully local traffic goes out immediately (Algorithm 5).
    l.start(ctx);
    // Initial redistribution: start AND complete before inter-region.
    for (auto& m : s_sends) {
      gather_into(args.sendbuf, es, m.gather, m.buf);
      m.req.start(ctx);
    }
    copy_values(args.sendbuf, routing->s_self.src, s_stage,
                routing->s_self.dst, es);
    for (auto& m : s_recvs) m.req.start(ctx);
    for (auto& m : s_recvs) {
      co_await ctx.wait(m.req);
      copy_values(m.buf, m.scatter_src, s_stage, m.scatter_dst, es);
    }
    for (auto& m : s_sends) co_await ctx.wait(m.req);
    // Inter-region messages.
    g.start(ctx);
    co_return;
  }

  Task<> wait(Context& ctx) override {
    const std::size_t es = args.element_size;
    // Complete fully local and inter-region traffic (Algorithm 6).
    co_await l.finish(ctx);
    co_await g.finish(ctx);
    // Final redistribution.
    for (auto& m : r_sends) {
      gather_into(g_stage, es, m.gather, m.buf);
      m.req.start(ctx);
    }
    copy_values(g_stage, routing->r_self.src, args.recvbuf,
                routing->r_self.dst, es);
    for (auto& m : r_recvs) m.req.start(ctx);
    for (auto& m : r_recvs) {
      co_await ctx.wait(m.req);
      copy_values(m.buf, m.scatter_src, args.recvbuf, m.scatter_dst, es);
    }
    for (auto& m : r_sends) co_await ctx.wait(m.req);
  }

  NeighborStats stats() const override { return routing->stats; }
  const char* name() const override {
    return routing->dedup ? "locality+dedup" : "locality";
  }
  std::shared_ptr<const LocalityPlan> plan() const override { return routing; }
};

/// Within-pair value offsets (in canonical enumeration order) of `src`'s
/// contribution to a region pair.
std::vector<long> src_item_offsets(const PairLayout& lay,
                                   const std::vector<const Edge*>& pair,
                                   int src, bool dedup) {
  std::vector<long> out;
  if (!dedup) {
    for (std::size_t e = 0; e < pair.size(); ++e)
      if (pair[e]->src == src)
        for (int k = 0; k < pair[e]->count; ++k)
          out.push_back(lay.segments[e].offset + k);
  } else {
    for (const auto& blk : lay.src_blocks)
      if (blk.src == src)
        for (std::size_t k = 0; k < blk.gids.size(); ++k)
          out.push_back(blk.offset + static_cast<long>(k));
  }
  return out;
}

/// Stable sort of (gid, value position) pairs by gid: equal gids keep their
/// enumeration order.  Each dedup index map below is read off one such
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
/// assignment, the led pairs' layouts, and the s- and r-phase index maps
/// and staging sizes (written to `plan`).  The parsed edges view `md`,
/// which is taken by value and so freed on return — before the caller's
/// root handshake suspends, so the members of a region do not all hold
/// their copies at once.  Layouts are built only for the pairs this rank
/// leads: nobody else reads them.
RegionRoutes route_region(LocalityPlan& plan, std::vector<long long> md,
                          const simmpi::DistGraph& graph,
                          const AlltoallvArgs& args, const Comm& rc,
                          std::span<const int> g2l) {
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
  const auto out_assign =
      detail::assign_leaders(out_loads, nlocal, plan.lpt_balance);
  const auto in_assign =
      detail::assign_leaders(in_loads, nlocal, plan.lpt_balance);
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

  // s_stage positions of `src`'s values in the pairs this rank leads.
  auto staged_from = [&](int src) {
    std::vector<int> pos;
    for (std::size_t p = 0; p < routes.led_out.size(); ++p) {
      const LedPair& led = routes.led_out[p];
      for (long off : src_item_offsets(out_layouts[p],
                                       *out_pairs.find(led.region), src,
                                       dedup))
        pos.push_back(static_cast<int>(led.offset + off));
    }
    return pos;
  };

  // ---- s phase: source side ------------------------------------------------
  for (int L = 0; L < nlocal; ++L) {
    std::vector<int> gather;
    for (const auto& [q, core] : routes.out_leader_core) {
      if (core != L) continue;
      if (!dedup) {
        for (const Edge* e : *out_pairs.find(q)) {
          if (e->src != me) continue;
          const int i = *dst_index.find(e->dst);
          for (int k = 0; k < e->count; ++k)
            gather.push_back(args.sdispls[i] + k);
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
            gather.push_back(occurrences[j].second);
      }
    }
    if (gather.empty()) continue;
    if (L == my_core) {
      plan.s_self.src = std::move(gather);
      plan.s_self.dst = staged_from(me);
    } else {
      ++plan.stats.local_msgs;
      plan.stats.local_values += static_cast<long>(gather.size());
      plan.s_sends.push_back({core_to_local(L), std::move(gather)});
    }
  }

  // ---- s phase: leader side ------------------------------------------------
  if (!routes.led_out.empty()) {
    for (int core = 0; core < nlocal; ++core) {
      const int src = core_to_local(core);
      if (src == me) continue;
      std::vector<int> sc_dst = staged_from(src);
      if (sc_dst.empty()) continue;
      LocalityPlan::ScatterMsg m;
      m.peer = src;
      m.values = static_cast<int>(sc_dst.size());
      m.scatter_dst = std::move(sc_dst);
      m.scatter_src.resize(m.scatter_dst.size());
      std::iota(m.scatter_src.begin(), m.scatter_src.end(), 0);
      plan.s_recvs.push_back(std::move(m));
    }
  }

  // ---- r phase: leader side ------------------------------------------------
  std::vector<int> self_vals;  // value gather list when I am my own dest
  if (!routes.led_in.empty()) {
    for (int core = 0; core < nlocal; ++core) {
      const int d = core_to_local(core);
      std::vector<int> gather;
      for (std::size_t p = 0; p < routes.led_in.size(); ++p) {
        const auto& pair = *in_pairs.find(routes.led_in[p].region);
        const PairLayout& lay = in_layouts[p];
        const long block = routes.led_in[p].offset;
        for (std::size_t e = 0; e < pair.size(); ++e) {
          if (pair[e]->dst != d) continue;
          if (!dedup) {
            for (int k = 0; k < pair[e]->count; ++k)
              gather.push_back(
                  static_cast<int>(block + lay.segments[e].offset + k));
          } else {
            const auto& src_block = lay.block(pair[e]->src);
            for (gidx gid : detail::unique_sorted(pair[e]->gids))
              gather.push_back(static_cast<int>(block + src_block.find(gid)));
          }
        }
      }
      if (gather.empty()) continue;
      if (d == me) {
        self_vals = std::move(gather);
      } else {
        ++plan.stats.local_msgs;
        plan.stats.local_values += static_cast<long>(gather.size());
        plan.r_sends.push_back({d, std::move(gather)});
      }
    }
  }

  // ---- r phase: destination side -------------------------------------------
  for (int core = 0; core < nlocal; ++core) {
    std::vector<int> sc_src, sc_dst;
    int value_pos = 0;
    for (const auto& [rr, lcore] : routes.in_leader_core) {
      if (lcore != core) continue;
      for (const Edge* e : *in_pairs.find(rr)) {
        if (e->dst != me) continue;
        const int i = *src_index.find(e->src);
        if (!dedup) {
          for (int k = 0; k < e->count; ++k) {
            sc_src.push_back(value_pos++);
            sc_dst.push_back(args.rdispls[i] + k);
          }
        } else {
          // The leader sends the segment's unique gids in ascending order;
          // every position carrying a gid reads that gid's value.
          std::vector<std::pair<gidx, int>> occurrences;
          for (int k = 0; k < e->count; ++k) {
            const int pos = args.rdispls[i] + k;
            occurrences.emplace_back(args.recv_idx[pos], pos);
          }
          sort_by_gid(occurrences);
          int u = -1;  // index of the current gid among the unique ones
          for (std::size_t j = 0; j < occurrences.size(); ++j) {
            if (j == 0 || occurrences[j].first != occurrences[j - 1].first) ++u;
            sc_src.push_back(value_pos + u);
            sc_dst.push_back(occurrences[j].second);
          }
          value_pos += u + 1;
        }
      }
    }
    if (sc_dst.empty()) continue;
    if (core == my_core) {
      // I am my own in-leader: resolve through the value list computed on
      // the leader side.
      plan.r_self.src.resize(sc_dst.size());
      plan.r_self.dst = sc_dst;
      for (std::size_t k = 0; k < sc_dst.size(); ++k)
        plan.r_self.src[k] = self_vals[sc_src[k]];
    } else {
      LocalityPlan::ScatterMsg m;
      m.peer = core_to_local(core);
      m.values = value_pos;
      m.scatter_src = std::move(sc_src);
      m.scatter_dst = std::move(sc_dst);
      plan.r_recvs.push_back(std::move(m));
    }
  }
  return routes;
}

}  // namespace

Task<std::shared_ptr<const LocalityPlan>> impl::build_locality_plan(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts) {
  if (!uses_locality(method))
    throw simmpi::SimError(
        "make_locality_plan: Method::standard has no locality plan");
  const bool dedup = needs_idx(method);
  detail::validate_args(graph, args, dedup);
  detail::reject_duplicate_edges(graph);
  const Comm& comm = graph.comm;
  const auto& machine = ctx.engine().machine();

  auto plan = std::make_shared<LocalityPlan>();
  plan->dedup = dedup;
  plan->lpt_balance = opts.lpt_balance;
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
      route_region(*plan, std::move(all_md), graph, args, rc, g2l);
  ctx.compute(impl::kSetupComputePerWord * comm.size());

  // ---- root handshake: learn peer-region leaders ---------------------------
  // For pair (A -> B): A's root tells B's root A's send leader; B's root
  // tells A's root B's receive leader.  Message ordering per root channel is
  // deterministic (outbound loop before inbound loop on both ends).
  util::FlatMap<int, int> g_dst_leader;  // Q  -> comm-local recv leader in Q
  util::FlatMap<int, int> g_src_leader;  // R' -> comm-local send leader in R'
  std::vector<long long> hs_blob;
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
    hs_blob.push_back(static_cast<long long>(g_src_leader.size()));
    for (const auto& [rr, l] : g_src_leader) {
      hs_blob.push_back(rr);
      hs_blob.push_back(l);
    }
    hs_blob.push_back(static_cast<long long>(g_dst_leader.size()));
    for (const auto& [q, l] : g_dst_leader) {
      hs_blob.push_back(q);
      hs_blob.push_back(l);
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
                                p.total, plan->stats);
  }
  for (const LedPair& p : routes.led_in)
    plan->g_recvs.push_back({*g_src_leader.find(p.region), p.offset, p.total});

  // Charge the routing computation (index map building) to this rank.
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(plan->s_stage_values +
                                  plan->g_stage_values + routes.edges +
                                  nlocal));
  co_return plan;
}

std::unique_ptr<NeighborAlltoallv> impl::bind_locality(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const LocalityPlan> plan, const Options& opts) {
  detail::validate_plan_args(*plan, graph, args);
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
  obj->g = impl::ChannelSet(comm, opts.reliability, tag_gack);
  for (const auto& m : p.l_sends)
    obj->l.send(obj->args.sendbuf.subspan(m.displ * es, m.count * es), m.peer,
                tag_l);
  for (const auto& m : p.l_recvs)
    obj->l.recv(obj->args.recvbuf.subspan(m.displ * es, m.count * es), m.peer,
                tag_l);
  for (const auto& m : p.g_sends)
    obj->g.send(std::span<const std::byte>(obj->s_stage)
                    .subspan(m.offset * es, m.count * es),
                m.peer, tag_g);
  for (const auto& m : p.g_recvs)
    obj->g.recv(std::span<std::byte>(obj->g_stage)
                    .subspan(m.offset * es, m.count * es),
                m.peer, tag_g);

  auto bind_gather = [&](const LocalityPlan::GatherMsg& m, int tag) {
    BoundGather b;
    b.gather = m.gather;
    b.buf.resize(m.gather.size() * es);
    b.req = Request::send(comm, std::span<const std::byte>(b.buf), m.peer, tag);
    return b;
  };
  auto bind_scatter = [&](const LocalityPlan::ScatterMsg& m, int tag) {
    BoundScatter b;
    b.scatter_src = m.scatter_src;
    b.scatter_dst = m.scatter_dst;
    b.buf.resize(static_cast<std::size_t>(m.values) * es);
    b.req = Request::recv(comm, std::span<std::byte>(b.buf), m.peer, tag);
    return b;
  };
  for (const auto& m : p.s_sends) obj->s_sends.push_back(bind_gather(m, tag_s));
  for (const auto& m : p.s_recvs)
    obj->s_recvs.push_back(bind_scatter(m, tag_s));
  for (const auto& m : p.r_sends) obj->r_sends.push_back(bind_gather(m, tag_r));
  for (const auto& m : p.r_recvs)
    obj->r_recvs.push_back(bind_scatter(m, tag_r));

  // Charge the buffer binding work (staging allocation + channel setup).
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(p.s_stage_values + p.g_stage_values));
  return obj;
}

}  // namespace mpix
