#include "mpix/detail.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

#include "util/hash.hpp"

namespace mpix::detail {

using simmpi::SimError;

void validate_args(const simmpi::DistGraph& graph, const AlltoallvArgs& args,
                   bool need_idx) {
  const std::size_t nd = graph.destinations.size();
  const std::size_t ns = graph.sources.size();
  if (args.element_size == 0)
    throw SimError("neighbor_alltoallv: element_size must be positive");
  // Ragged payload buffers: send_values()/recv_values() divide by
  // element_size, so a trailing partial value would silently be dropped.
  if (args.sendbuf.size() % args.element_size != 0)
    throw SimError(
        "neighbor_alltoallv: sendbuf holds " +
        std::to_string(args.sendbuf.size()) +
        " bytes, not a multiple of element_size " +
        std::to_string(args.element_size) + " (remainder " +
        std::to_string(args.sendbuf.size() % args.element_size) +
        " bytes would be silently dropped)");
  if (args.recvbuf.size() % args.element_size != 0)
    throw SimError(
        "neighbor_alltoallv: recvbuf holds " +
        std::to_string(args.recvbuf.size()) +
        " bytes, not a multiple of element_size " +
        std::to_string(args.element_size) + " (remainder " +
        std::to_string(args.recvbuf.size() % args.element_size) +
        " bytes would be silently dropped)");
  if (args.sendcounts.size() != nd || args.sdispls.size() != nd)
    throw SimError("neighbor_alltoallv: send counts/displs size mismatch");
  if (args.recvcounts.size() != ns || args.rdispls.size() != ns)
    throw SimError("neighbor_alltoallv: recv counts/displs size mismatch");
  for (std::size_t i = 0; i < nd; ++i) {
    if (args.sendcounts[i] < 0 || args.sdispls[i] < 0)
      throw SimError("neighbor_alltoallv: negative send count/displ");
    if ((static_cast<std::size_t>(args.sdispls[i]) + args.sendcounts[i]) *
            args.element_size >
        args.sendbuf.size())
      throw SimError(
          "neighbor_alltoallv: send segment exceeds sendbuf (check counts "
          "and element_size)");
  }
  for (std::size_t i = 0; i < ns; ++i) {
    if (args.recvcounts[i] < 0 || args.rdispls[i] < 0)
      throw SimError("neighbor_alltoallv: negative recv count/displ");
    if ((static_cast<std::size_t>(args.rdispls[i]) + args.recvcounts[i]) *
            args.element_size >
        args.recvbuf.size())
      throw SimError(
          "neighbor_alltoallv: recv segment exceeds recvbuf (check counts "
          "and element_size)");
  }
  if (need_idx) {
    if (args.send_idx.size() < args.send_values() ||
        args.recv_idx.size() < args.recv_values())
      throw SimError(
          "neighbor_alltoallv: dedup requires send_idx/recv_idx covering "
          "the send/recv buffers");
  }
}

void reject_duplicate_edges(const simmpi::DistGraph& graph) {
  auto check = [](std::span<const int> ranks, const char* what) {
    std::vector<int> sorted(ranks.begin(), ranks.end());
    std::sort(sorted.begin(), sorted.end());
    auto it = std::adjacent_find(sorted.begin(), sorted.end());
    if (it != sorted.end())
      throw SimError(
          "neighbor_alltoallv: locality methods require unique " +
          std::string(what) + " (rank " + std::to_string(*it) +
          " appears more than once; merge the segments or use "
          "Method::standard)");
  };
  check(graph.destinations, "destinations");
  check(graph.sources, "sources");
}

namespace {

bool same_ints(std::span<const int> a, std::span<const int> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool same_gids(std::span<const gidx> a, std::span<const gidx> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// One multiply per word, not byte-wise FNV-1a's eight: every plan build
/// and every plan reuse hashes two words per communicator member, and the
/// byte-wise mix made each locality init about 25 % slower at 256 ranks.
std::uint64_t word_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= util::kFnvPrime;
  h ^= h >> 29;
  return h;
}

}  // namespace

std::uint64_t binding_fingerprint(const simmpi::Comm& comm,
                                  const simmpi::Machine& machine) {
  std::uint64_t h = util::kFnvOffsetBasis;
  h = word_mix(h, static_cast<std::uint64_t>(comm.size()));
  h = word_mix(h, static_cast<std::uint64_t>(machine.ranks_per_region()));
  h = word_mix(h, static_cast<std::uint64_t>(machine.num_ranks()));
  // The switch-hierarchy shape, not its tapers: tapers only scale link
  // costs, never routing or the per-tier crossing counts baked into a
  // plan, so plans stay reusable across a taper sweep.
  h = word_mix(h, static_cast<std::uint64_t>(machine.num_switch_levels()));
  for (const simmpi::SwitchLevel& lvl : machine.config().switch_levels)
    h = word_mix(h, static_cast<std::uint64_t>(lvl.radix));
  for (int m : comm.members()) {
    h = word_mix(h, static_cast<std::uint64_t>(m));
    h = word_mix(h, static_cast<std::uint64_t>(machine.region_of(m)));
  }
  return h;
}

void count_send(NeighborStats& stats, const simmpi::Comm& comm, int peer,
                long values) {
  const simmpi::Machine& machine = comm.engine().machine();
  const int gsrc = comm.global(comm.rank());
  const int gdst = comm.global(peer);
  if (machine.region_of(gsrc) == machine.region_of(gdst)) {
    ++stats.local_msgs;
    stats.local_values += values;
    return;
  }
  ++stats.global_msgs;
  stats.global_values += values;
  stats.max_global_msg_values = std::max(stats.max_global_msg_values, values);
  const int lca = machine.lca_level(gsrc, gdst);
  if (lca <= 0) return;
  if (stats.link_msgs.empty())
    stats.link_msgs.assign(static_cast<std::size_t>(machine.num_link_tiers()),
                           0);
  for (int t = 0; t < lca; ++t) ++stats.link_msgs[static_cast<std::size_t>(t)];
}

void validate_plan_args(const PlanBase& plan, const simmpi::DistGraph& graph,
                        const AlltoallvArgs& args, bool need_idx) {
  validate_args(graph, args, need_idx);
  if (plan.binding_fingerprint != 0 &&
      plan.binding_fingerprint !=
          binding_fingerprint(graph.comm,
                              graph.comm.engine().machine()))
    throw SimError(
        "neighbor_alltoallv: plan was built for a different communicator or "
        "machine shape");
  if (!same_ints(args.sendcounts, plan.sendcounts) ||
      !same_ints(args.sdispls, plan.sdispls) ||
      !same_ints(args.recvcounts, plan.recvcounts) ||
      !same_ints(args.rdispls, plan.rdispls))
    throw SimError(
        "neighbor_alltoallv: plan was built for different counts/displs");
}

void validate_plan_args(const LocalityPlan& plan,
                        const simmpi::DistGraph& graph,
                        const AlltoallvArgs& args) {
  validate_plan_args(static_cast<const PlanBase&>(plan), graph, args,
                     plan.dedup);
  if (!same_ints(graph.destinations, plan.destinations) ||
      !same_ints(graph.sources, plan.sources))
    throw SimError(
        "neighbor_alltoallv: plan was built for a different graph adjacency");
  if (plan.dedup &&
      (!same_gids(args.send_idx.first(args.send_values()), plan.send_idx) ||
       !same_gids(args.recv_idx.first(args.recv_values()), plan.recv_idx)))
    throw SimError(
        "neighbor_alltoallv: dedup plan was built for different "
        "send_idx/recv_idx annotations");
}

std::vector<long long> serialize_edges(const simmpi::DistGraph& graph,
                                       const AlltoallvArgs& args) {
  // Exact single reservation: 1 rank word + per direction a count word and
  // 2 words per edge.
  const std::size_t words =
      3 + 2 * (graph.destinations.size() + graph.sources.size());
  std::vector<long long> blob;
  blob.reserve(words);
  blob.push_back(graph.comm.rank());
  blob.push_back(static_cast<long long>(graph.destinations.size()));
  for (std::size_t i = 0; i < graph.destinations.size(); ++i) {
    blob.push_back(graph.destinations[i]);
    blob.push_back(args.sendcounts[i]);
  }
  blob.push_back(static_cast<long long>(graph.sources.size()));
  for (std::size_t i = 0; i < graph.sources.size(); ++i) {
    blob.push_back(graph.sources[i]);
    blob.push_back(args.recvcounts[i]);
  }
  assert(blob.size() == words);  // the reservation above was exact
  return blob;
}

void parse_edges(std::span<const long long> data, std::vector<Edge>& out_edges,
                 std::vector<Edge>& in_edges) {
  std::size_t pos = 0;
  auto next = [&]() {
    if (pos >= data.size())
      throw SimError("parse_edges: truncated metadata blob");
    return data[pos++];
  };
  auto count = [&]() {
    const long long c = next();
    if (c < 0 || c > std::numeric_limits<int>::max())
      throw SimError("parse_edges: edge count " + std::to_string(c) +
                     " out of range");
    return static_cast<int>(c);
  };
  while (pos < data.size()) {
    const int rank = static_cast<int>(next());
    const long long nout = next();
    for (long long e = 0; e < nout; ++e) {
      const int dst = static_cast<int>(next());
      out_edges.push_back({rank, dst, count(), {}});
    }
    const long long nin = next();
    for (long long e = 0; e < nin; ++e) {
      const int src = static_cast<int>(next());
      in_edges.push_back({src, rank, count(), {}});
    }
  }
  std::sort(out_edges.begin(), out_edges.end());
  std::sort(in_edges.begin(), in_edges.end());
}

std::vector<int> assign_leaders(std::span<const std::pair<int, long>> loads,
                                int nlocal, bool lpt) {
  if (nlocal < 1) throw SimError("assign_leaders: nlocal must be >= 1");
  std::vector<int> assignment(loads.size(), 0);
  if (!lpt) {
    for (std::size_t i = 0; i < loads.size(); ++i)
      assignment[i] = static_cast<int>(i) % nlocal;
    return assignment;
  }
  // Longest-processing-time: heaviest region first onto the least-loaded
  // core; ties broken by region id / core id for determinism.
  std::vector<int> order(loads.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (loads[a].second != loads[b].second)
      return loads[a].second > loads[b].second;
    return loads[a].first < loads[b].first;
  });
  std::vector<long> core_load(nlocal, 0);
  for (int i : order) {
    int best = 0;
    for (int c = 1; c < nlocal; ++c)
      if (core_load[c] < core_load[best]) best = c;
    assignment[i] = best;
    core_load[best] += loads[i].second;
  }
  return assignment;
}

std::vector<gidx> unique_sorted(std::span<const gidx> gids) {
  std::vector<gidx> u(gids.begin(), gids.end());
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

std::vector<CopyRun> compose_runs(std::span<const CopyRun> to_msg,
                                  std::span<const CopyRun> from_msg) {
  std::vector<CopyRun> out;
  std::size_t t = 0;  // the to_msg run holding message position k
  for (const CopyRun& f : from_msg) {
    long k = f.src;
    // Message positions never decrease along from_msg, but a dedup scatter
    // may re-read values the previous run already read.
    while (t > 0 && to_msg[t].dst > k) --t;
    for (long done = 0; done < f.len;) {
      while (t < to_msg.size() && to_msg[t].dst + to_msg[t].len <= k) ++t;
      if (t == to_msg.size() || to_msg[t].dst > k)
        throw SimError("compose_runs: message position " + std::to_string(k) +
                       " is not covered");
      const CopyRun& r = to_msg[t];
      const long take = std::min(f.len - done, r.dst + r.len - k);
      push_run(out, r.src + (k - r.dst), f.dst + done, take);
      k += take;
      done += take;
    }
  }
  return out;
}

BoundPhase::BoundPhase(const StagedPhase& phase, const simmpi::Comm& comm,
                       int tag, std::size_t element_size)
    : self_(phase.self), es_(element_size) {
  const auto bytes = [&](const StagedPhase::Msg& m) {
    return static_cast<std::size_t>(m.values) * es_;
  };
  for (const auto& m : phase.sends)
    sends_.push_back({m.runs, simmpi::Request::send_in_place(
                                  comm, bytes(m), m.peer, tag)});
  for (const auto& m : phase.recvs)
    recvs_.push_back({m.runs, simmpi::Request::recv_in_place(
                                  comm, bytes(m), m.peer, tag)});
}

simmpi::Task<> BoundPhase::run(simmpi::Context& ctx,
                               std::span<const std::byte> from,
                               std::span<std::byte> to) {
  for (Msg& m : sends_)
    copy_runs(from, m.req.start_in_place(ctx), m.runs, es_);
  copy_runs(from, to, self_, es_);
  for (Msg& m : recvs_) m.req.start(ctx);
  for (Msg& m : recvs_) {
    const auto scatter = [&](std::span<const std::byte> msg) {
      copy_runs(msg, to, m.runs, es_);
    };
    co_await ctx.wait_in_place(m.req, scatter);
  }
  for (Msg& m : sends_) co_await ctx.wait(m.req);
}

long PairLayout::SrcBlock::find(gidx gid) const {
  auto it = std::lower_bound(gids.begin(), gids.end(), gid);
  if (it == gids.end() || *it != gid)
    throw SimError("PairLayout::find: gid not in source block");
  return offset + (it - gids.begin());
}

const PairLayout::SrcBlock& PairLayout::block(int src) const {
  for (const auto& blk : src_blocks)
    if (blk.src == src) return blk;
  throw SimError("PairLayout::block: source not in pair");
}

PairLayout pair_layout(std::span<const Edge* const> edges, bool dedup) {
  PairLayout lay;
  if (!dedup) {
    for (const Edge* edge : edges) {
      lay.segments.push_back(lay.total);
      lay.total += edge->count;
    }
    return lay;
  }
  // Dedup: group edges by source (already sorted by (src, dst)) and take
  // the union of their gids.
  std::size_t e = 0;
  while (e < edges.size()) {
    const int src = edges[e]->src;
    std::vector<gidx> all;
    while (e < edges.size() && edges[e]->src == src) {
      all.insert(all.end(), edges[e]->gids.begin(), edges[e]->gids.end());
      ++e;
    }
    std::sort(all.begin(), all.end());
    all.erase(std::unique(all.begin(), all.end()), all.end());
    PairLayout::SrcBlock blk;
    blk.src = src;
    blk.offset = lay.total;
    blk.gids = std::move(all);
    lay.total += static_cast<long>(blk.gids.size());
    lay.src_blocks.push_back(std::move(blk));
  }
  return lay;
}

}  // namespace mpix::detail
