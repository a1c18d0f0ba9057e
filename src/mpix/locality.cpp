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
///    assignments — and stores them in a buffer-free `LocalityPlan`.  Each
///    region routes once, at its root (the region's smallest comm-local
///    rank): members send it their edge headers (a gatherv), and the root
///    alone groups the region's edges by peer region, assigns the leaders
///    and runs the root-to-root handshake.  It broadcasts fixed-size
///    leader tables and sends each leader only the headers of the pairs
///    it leads (a scatterv); in a dedup build each member then sends each
///    leader the gids of its own edges in that leader's pairs.  A member
///    builds its run lists from its own edges, the tables and its led
///    pairs, so its work and memory are O(own edges + led edges +
///    regions), and it lays out only the region pairs it leads.  Runs are
///    coalesced as the values are enumerated, so no per-value map is ever
///    built;
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

/// What the region root broadcasts to its members, in one message whose
/// size every member knows.  Per machine region q, four words: the core
/// that leads this region's pair toward q, the core that leads the pair
/// from q, and the comm-local ranks of q's receive leader and send leader
/// for those two pairs; -1 where there is no such pair.  Per core, two
/// words: its comm-local rank and the words of led-pair headers the root
/// sends it.
struct RegionTables {
  int nregions;
  std::vector<long long> words;

  RegionTables(int regions, int cores)
      : nregions(regions),
        words(4 * static_cast<std::size_t>(regions) +
                  2 * static_cast<std::size_t>(cores),
              -1) {}
  long long& out_leader(int q) { return words[4 * q]; }
  long long& in_leader(int q) { return words[4 * q + 1]; }
  long long& peer_recv_leader(int q) { return words[4 * q + 2]; }
  long long& peer_send_leader(int q) { return words[4 * q + 3]; }
  long long& local_rank(int core) { return words[4 * nregions + 2 * core]; }
  long long& led_words(int core) {
    return words[4 * nregions + 2 * core + 1];
  }
};

/// What a plan build still needs once the region's metadata is freed: the
/// g phase's led pairs.
struct RegionRoutes {
  std::vector<LedPair> led_out, led_in;  ///< ascending region ids
  std::size_t edges = 0;                 ///< own and led edges read
};

/// Exclusive prefix sums of per-core block sizes: where each block starts.
std::vector<long> block_starts(std::span<const int> counts) {
  std::vector<long> at(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) at[i + 1] = at[i] + counts[i];
  return at;
}

/// (peer region, total values) per pair, in the pairs' ascending region
/// order: what the leader assignment balances.
std::vector<std::pair<int, long>> pair_loads(
    const util::FlatMap<int, std::vector<const Edge*>>& pairs) {
  std::vector<std::pair<int, long>> loads;
  for (const auto& [region, pair] : pairs) {
    long t = 0;
    for (const Edge* e : pair) t += e->count;
    loads.emplace_back(region, t);
  }
  return loads;
}

/// The region root's routing, the only place that reads the whole region's
/// edge headers.  `headers` holds its members' headers
/// (detail::serialize_edges), core after core, `sizes[core]` words each.
/// Groups the region's remote edges by peer region, assigns each pair a
/// leader core (`lpt` picks the strategy, see Options::lpt_balance), and
/// writes the leaders and every core's comm-local rank to `tables`.
/// Returns the headers of the pairs each core leads, core after core: the
/// out-edge count and a (src, dst, count) triple per out-edge, then the
/// same for in-edges, with pairs in ascending region order and each pair's
/// edges in (src, dst) order.  A core that leads no pair gets no words;
/// `tables` records each core's word count.
std::vector<long long> route_at_root(std::span<const long long> headers,
                                     std::span<const int> sizes,
                                     const Comm& comm, bool lpt,
                                     RegionTables& tables) {
  const auto& machine = comm.engine().machine();
  const int nlocal = static_cast<int>(sizes.size());
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  const int my_region = region_of(comm.rank());
  // Every member's header starts with its comm-local rank.
  std::size_t at = 0;
  for (int core = 0; core < nlocal; at += sizes[core++])
    tables.local_rank(core) = headers[at];

  std::vector<Edge> out_edges, in_edges;
  detail::parse_edges(headers, out_edges, in_edges);
  // Group remote traffic by peer region (sorted FlatMap => ascending region
  // ids).
  util::FlatMap<int, std::vector<const Edge*>> out_pairs, in_pairs;
  for (const Edge& e : out_edges) {
    const int q = region_of(e.dst);
    if (q != my_region) out_pairs[q].push_back(&e);
  }
  for (const Edge& e : in_edges) {
    const int rr = region_of(e.src);
    if (rr != my_region) in_pairs[rr].push_back(&e);
  }

  // ---- leader assignment ---------------------------------------------------
  // Each core's led edges, pair after pair.
  std::vector<std::vector<const Edge*>> led_out(nlocal), led_in(nlocal);
  using Column = long long& (RegionTables::*)(int);
  auto assign = [&](const auto& pairs, Column leader_of, auto& led) {
    const auto cores = detail::assign_leaders(pair_loads(pairs), nlocal, lpt);
    std::size_t i = 0;
    for (const auto& [region, pair] : pairs) {
      const int core = cores[i++];
      (tables.*leader_of)(region) = core;
      led[core].insert(led[core].end(), pair.begin(), pair.end());
    }
  };
  assign(out_pairs, &RegionTables::out_leader, led_out);
  assign(in_pairs, &RegionTables::in_leader, led_in);

  // ---- each core's led-pair headers ----------------------------------------
  std::vector<long long> led;
  for (int core = 0; core < nlocal; ++core) {
    const std::size_t start = led.size();
    if (!led_out[core].empty() || !led_in[core].empty())
      for (const auto* edges : {&led_out[core], &led_in[core]}) {
        led.push_back(static_cast<long long>(edges->size()));
        for (const Edge* e : *edges)
          led.insert(led.end(), {e->src, e->dst, e->count});
      }
    tables.led_words(core) = static_cast<long long>(led.size() - start);
  }
  return led;
}

/// One of this rank's edges to or from another region: the core leading
/// its region pair, the peer region, the peer's comm-local rank, and the
/// edge's position in the graph's destination or source list.  Sorted, a
/// rank's edges run leader by leader, each in ascending (region, peer)
/// order: the order of the pairs' edge lists restricted to this rank.
struct OwnEdge {
  int leader;
  int region;
  int peer;
  int index;
  auto operator<=>(const OwnEdge&) const = default;
};

/// Every routing decision this rank makes from its own edges (`graph`,
/// `args`), the root's `tables` and the headers of the pairs it leads
/// (`led`, see route_at_root): the led pairs' layouts, and the s- and
/// r-phase run lists and staging sizes (written to `plan`).  In a dedup
/// build each member then sends each leader the gids of its own edges in
/// the pairs that leader leads (one coll::alltoallv on `rc`), and the
/// edges of the led pairs view the blocks received.  Layouts are built
/// only for the pairs this rank leads: nobody else reads them.  Reads
/// O(own edges + led edges + regions) words; `own_words` is the size of
/// this rank's own header.
Task<RegionRoutes> route_region(Context& ctx, LocalityPlan& plan,
                                const simmpi::DistGraph& graph,
                                const AlltoallvArgs& args, const Comm& rc,
                                RegionTables& tables,
                                std::span<const long long> led,
                                std::size_t own_words) {
  const bool dedup = plan.dedup;
  const Comm& comm = graph.comm;
  const auto& machine = comm.engine().machine();
  const int me = comm.rank();
  const int nlocal = rc.size();
  const int my_core = rc.rank();
  auto region_of = [&](int local) {
    return machine.region_of(comm.global(local));
  };
  auto core_to_local = [&](int core) {
    return static_cast<int>(tables.local_rank(core));
  };
  const int my_region = region_of(me);

  // ---- this rank's own remote edges ----------------------------------------
  auto own_remote = [&](std::span<const int> peers, bool out) {
    std::vector<OwnEdge> own;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      const int q = region_of(peers[i]);
      if (q == my_region) continue;
      const long long leader = out ? tables.out_leader(q) : tables.in_leader(q);
      own.push_back({static_cast<int>(leader), q, peers[i],
                     static_cast<int>(i)});
    }
    std::sort(own.begin(), own.end());
    return own;
  };
  const std::vector<OwnEdge> own_out = own_remote(graph.destinations, true);
  const std::vector<OwnEdge> own_in = own_remote(graph.sources, false);

  // ---- the pairs this rank leads -------------------------------------------
  // Grouped by peer region (sorted FlatMap => ascending region ids); each
  // pair's edges stay in the root's (src, dst) order.
  std::vector<Edge> led_edges;
  led_edges.reserve(led.size() / 3);  // no reallocation under the pointers
  std::size_t pos = 0;
  auto read_pairs = [&](bool out) {
    util::FlatMap<int, std::vector<Edge*>> pairs;
    if (pos == led.size()) return pairs;
    const long long n = led[pos++];
    for (long long k = 0; k < n; ++k, pos += 3) {
      Edge& e = led_edges.emplace_back();
      e.src = static_cast<int>(led[pos]);
      e.dst = static_cast<int>(led[pos + 1]);
      e.count = static_cast<int>(led[pos + 2]);
      pairs[region_of(out ? e.dst : e.src)].push_back(&e);
    }
    return pairs;
  };
  const util::FlatMap<int, std::vector<Edge*>> out_pairs = read_pairs(true);
  const util::FlatMap<int, std::vector<Edge*>> in_pairs = read_pairs(false);
  RegionRoutes routes;
  routes.edges =
      graph.destinations.size() + graph.sources.size() + led_edges.size();

  // ---- dedup: each leader gathers the gids of its pairs --------------------
  // The block from member M to leader L holds the gids of M's own edges in
  // the pairs L leads: out-edges, then in-edges, in ascending region and
  // edge order.  A member sizes its blocks from its own edges and the
  // leader tables, a leader its receptions from its led pairs' headers.
  std::vector<gidx> gids;  // the blocks this rank received, in core order
  if (dedup) {
    std::vector<int> send_counts(nlocal, 0), recv_counts(nlocal, 0);
    for (const OwnEdge& e : own_out)
      send_counts[e.leader] += args.sendcounts[e.index];
    for (const OwnEdge& e : own_in)
      send_counts[e.leader] += args.recvcounts[e.index];
    util::FlatMap<int, int> core_of;  // comm-local member -> core
    if (!led_edges.empty())
      for (int core = 0; core < nlocal; ++core)
        core_of[core_to_local(core)] = core;
    // visit(owner's core, edge) over the led edges, in block order.
    auto for_each_led_edge = [&](const auto& visit) {
      for (const auto& [q, pair] : out_pairs)
        for (Edge* e : pair) visit(*core_of.find(e->src), *e);
      for (const auto& [rr, pair] : in_pairs)
        for (Edge* e : pair) visit(*core_of.find(e->dst), *e);
    };
    for_each_led_edge(
        [&](int owner, const Edge& e) { recv_counts[owner] += e.count; });
    std::vector<long> at = block_starts(send_counts);
    std::vector<gidx> blocks(static_cast<std::size_t>(at.back()));
    auto put = [&](const OwnEdge& e, std::span<const gidx> own) {
      std::copy(own.begin(), own.end(), blocks.begin() + at[e.leader]);
      at[e.leader] += static_cast<long>(own.size());
    };
    for (const OwnEdge& e : own_out)
      put(e, args.send_idx.subspan(args.sdispls[e.index],
                                   args.sendcounts[e.index]));
    for (const OwnEdge& e : own_in)
      put(e, args.recv_idx.subspan(args.rdispls[e.index],
                                   args.recvcounts[e.index]));
    gids = co_await coll::alltoallv<gidx>(ctx, rc, blocks, send_counts,
                                          recv_counts);
    at = block_starts(recv_counts);
    for_each_led_edge([&](int owner, Edge& e) {
      e.gids = std::span<const gidx>(gids).subspan(at[owner], e.count);
      at[owner] += e.count;
    });
  }
  // Charge reading the metadata: this rank's own header, the leader
  // tables, its led-pair headers and the gid words it holds.
  ctx.compute(impl::kSetupComputePerWord *
              static_cast<double>(own_words + tables.words.size() +
                                  led.size() + gids.size()));

  // ---- layouts and staging blocks of the led pairs -------------------------
  std::vector<PairLayout> out_layouts, in_layouts;  // aligned with led_out/in
  auto lead = [&](const auto& pairs, std::vector<LedPair>& led_pairs,
                  std::vector<PairLayout>& lays) {
    long total = 0;
    for (const auto& [region, pair] : pairs) {
      lays.push_back(detail::pair_layout(pair, dedup));
      led_pairs.push_back({region, total, lays.back().total});
      total += lays.back().total;
    }
    return total;
  };
  plan.s_stage_values = lead(out_pairs, routes.led_out, out_layouts);
  plan.g_stage_values = lead(in_pairs, routes.led_in, in_layouts);

  // The s-phase message from `src` to this leader: its values in the pairs
  // this rank leads, message position -> s_stage position.
  auto staged_from = [&](int src) {
    StagedPhase::Msg m{.peer = src};
    for (std::size_t p = 0; p < routes.led_out.size(); ++p) {
      const LedPair& lp = routes.led_out[p];
      const PairLayout& lay = out_layouts[p];
      auto take = [&](long offset, long len) {
        detail::push_run(m.runs, m.values, lp.offset + offset, len);
        m.values += len;
      };
      if (!dedup) {
        const auto& pair = *out_pairs.find(lp.region);
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
  // One message per leader: the own out-edges of the pairs it leads.
  for (std::size_t i = 0; i < own_out.size();) {
    const int L = own_out[i].leader;
    StagedPhase::Msg m;
    for (; i < own_out.size() && own_out[i].leader == L;) {
      const int q = own_out[i].region;
      std::size_t end = i;
      while (end < own_out.size() && own_out[end].region == q) ++end;
      if (!dedup) {
        for (; i < end; ++i) {
          const int k = own_out[i].index;
          detail::push_run(m.runs, args.sdispls[k], m.values,
                           args.sendcounts[k]);
          m.values += args.sendcounts[k];
        }
      } else {
        // Unique gids this rank contributes to Q, each gathered from its
        // first occurrence in the send buffer (keep-first, gid-ascending).
        std::vector<std::pair<gidx, int>> occurrences;
        for (; i < end; ++i) {
          const int k = own_out[i].index;
          for (int j = 0; j < args.sendcounts[k]; ++j) {
            const int at = args.sdispls[k] + j;
            occurrences.emplace_back(args.send_idx[at], at);
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
        m.peer = d;
        plan.r.sends.push_back(std::move(m));
      }
    }
  }

  // ---- r phase: destination side -------------------------------------------
  // One message per leader: the own in-edges of the pairs it leads.
  for (std::size_t i = 0; i < own_in.size();) {
    const int core = own_in[i].leader;
    StagedPhase::Msg m;
    for (; i < own_in.size() && own_in[i].leader == core; ++i) {
      const int k = own_in[i].index;
      if (!dedup) {
        detail::push_run(m.runs, m.values, args.rdispls[k],
                         args.recvcounts[k]);
        m.values += args.recvcounts[k];
      } else {
        // The leader sends the segment's unique gids in ascending order;
        // every position carrying a gid reads that gid's value.
        std::vector<std::pair<gidx, int>> occurrences;
        for (int j = 0; j < args.recvcounts[k]; ++j) {
          const int at = args.rdispls[k] + j;
          occurrences.emplace_back(args.recv_idx[at], at);
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
  co_return routes;
}

}  // namespace

Task<std::shared_ptr<const LocalityPlan>> impl::build_locality_plan(
    Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    bool dedup, bool lpt_balance) {
  const Comm& comm = graph.comm;
  const auto& machine = ctx.engine().machine();

  auto plan = std::make_shared<LocalityPlan>();
  plan->dedup = dedup;

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
  }
  for (std::size_t i = 0; i < graph.sources.size(); ++i) {
    const int s = graph.sources[i];
    if (region_of(s) != my_region) continue;
    plan->l_recvs.push_back({s, args.rdispls[i], args.recvcounts[i]});
  }

  // ---- edge headers to the region root, which routes the region -----------
  // The root is core 0 of the region communicator: the region's smallest
  // comm-local rank.  The headers are freed before the handshake suspends.
  Comm rc = co_await coll::split_by_region(ctx, comm);
  const int nlocal = rc.size();
  const int my_core = rc.rank();
  const bool root = my_core == 0;
  const int nregions = machine.num_regions();
  RegionTables tables(nregions, nlocal);
  std::vector<long long> led_blocks;  // root only: every core's led headers
  std::size_t own_words = 0;
  {
    const std::vector<long long> own = detail::serialize_edges(graph, args);
    own_words = own.size();
    const std::vector<int> sizes = co_await coll::gather<int>(
        ctx, rc, static_cast<int>(own_words), 0);
    const std::vector<long long> headers =
        co_await coll::gatherv<long long>(ctx, rc, own, sizes, 0);
    if (root) {
      led_blocks = route_at_root(headers, sizes, comm, lpt_balance, tables);
      ctx.compute(impl::kSetupComputePerWord *
                  static_cast<double>(headers.size()));
    }
  }

  // ---- root handshake: learn peer-region leaders ---------------------------
  // For pair (A -> B): A's root tells B's root A's send leader; B's root
  // tells A's root B's receive leader.  Message ordering per root channel is
  // deterministic (outbound loop before inbound loop on both ends).  Only
  // roots build the O(P) table of region roots.
  if (root) {
    std::vector<int> region_root(static_cast<std::size_t>(nregions), -1);
    const auto members = comm.members();
    for (int i = comm.size() - 1; i >= 0; --i)
      region_root[machine.region_of(members[i])] = i;
    ctx.compute(impl::kSetupComputePerWord * comm.size());
    auto leader_rank = [&](long long core) {
      return tables.local_rank(static_cast<int>(core));
    };
    for (int q = 0; q < nregions; ++q)
      if (tables.out_leader(q) >= 0)
        co_await coll::send_val<long long>(
            ctx, comm, region_root[q], leader_rank(tables.out_leader(q)),
            tag_hs);
    for (int rr = 0; rr < nregions; ++rr)
      if (tables.in_leader(rr) >= 0)
        co_await coll::send_val<long long>(
            ctx, comm, region_root[rr], leader_rank(tables.in_leader(rr)),
            tag_hs);
    for (int rr = 0; rr < nregions; ++rr)
      if (tables.in_leader(rr) >= 0) {
        const long long l = co_await coll::recv_val<long long>(
            ctx, comm, region_root[rr], tag_hs);
        tables.peer_send_leader(rr) = l;
      }
    for (int q = 0; q < nregions; ++q)
      if (tables.out_leader(q) >= 0) {
        const long long l = co_await coll::recv_val<long long>(
            ctx, comm, region_root[q], tag_hs);
        tables.peer_recv_leader(q) = l;
      }
  }

  // ---- the tables to every member, each leader its pairs' headers ----------
  co_await coll::bcast(ctx, rc, tables.words, 0);
  std::vector<int> led_counts;  // root only
  if (root)
    for (int core = 0; core < nlocal; ++core)
      led_counts.push_back(static_cast<int>(tables.led_words(core)));
  const std::vector<long long> led = co_await coll::scatterv<long long>(
      ctx, rc, led_blocks, led_counts,
      static_cast<int>(tables.led_words(my_core)), 0);

  // ---- s/r routing from own edges and led pairs ----------------------------
  const RegionRoutes routes = co_await route_region(
      ctx, *plan, graph, args, rc, tables, led, own_words);

  // ---- g phase --------------------------------------------------------------
  for (const LedPair& p : routes.led_out)
    plan->g_sends.push_back(
        {static_cast<int>(tables.peer_recv_leader(p.region)), p.offset,
         p.total});
  for (const LedPair& p : routes.led_in)
    plan->g_recvs.push_back(
        {static_cast<int>(tables.peer_send_leader(p.region)), p.offset,
         p.total});

  // ---- message statistics: every send this rank posts ----------------------
  for (const DirectMsg& m : plan->l_sends)
    detail::count_send(plan->stats, comm, m.peer, m.count);
  for (const StagedPhase* phase : {&plan->s, &plan->r})
    for (const StagedPhase::Msg& m : phase->sends)
      detail::count_send(plan->stats, comm, m.peer, m.values);
  for (const DirectMsg& m : plan->g_sends)
    detail::count_send(plan->stats, comm, m.peer, m.count);

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
