#include "mpix/detail.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>
#include <tuple>

namespace mpix::detail {

using simmpi::SimError;

void validate_args(const simmpi::DistGraph& graph, const AlltoallvArgs& args,
                   bool need_idx, const char* who) {
  const std::string at = std::string(who) + ": ";
  const std::size_t es = args.element_size;
  if (es == 0) throw SimError(at + "element_size must be positive");
  const int ranks = graph.comm.size();
  // One direction: its peers against the communicator, its buffer, then
  // its counts and displacements against the degree and the buffer's
  // values.
  auto check = [&](const std::vector<int>& peers, const char* peers_name,
                   std::size_t bytes, const char* buf,
                   const std::vector<int>& counts, const char* counts_name,
                   const std::vector<int>& displs, const char* displs_name) {
    const std::size_t degree = peers.size();
    for (std::size_t i = 0; i < degree; ++i)
      if (peers[i] < 0 || peers[i] >= ranks)
        throw SimError(at + peers_name + "[" + std::to_string(i) + "] is " +
                       std::to_string(peers[i]) + ", not a rank of the " +
                       std::to_string(ranks) + "-rank communicator");
    // Ragged payload buffers: send_values()/recv_values() divide by
    // element_size, so a trailing partial value would silently be dropped.
    if (bytes % es != 0)
      throw SimError(at + buf + " holds " + std::to_string(bytes) +
                     " bytes, not a multiple of element_size " +
                     std::to_string(es) + " (remainder " +
                     std::to_string(bytes % es) +
                     " bytes would be silently dropped)");
    for (const auto& [v, name] : {std::pair{&counts, counts_name},
                                  std::pair{&displs, displs_name}}) {
      if (v->size() != degree)
        throw SimError(at + name + " has " + std::to_string(v->size()) +
                       " entries for " + std::to_string(degree) + " " +
                       peers_name);
      for (std::size_t i = 0; i < degree; ++i)
        if ((*v)[i] < 0)
          throw SimError(at + name + "[" + std::to_string(i) + "] is " +
                         std::to_string((*v)[i]) + ", negative");
    }
    const std::size_t values = bytes / es;
    for (std::size_t i = 0; i < degree; ++i)
      if (static_cast<std::size_t>(displs[i]) + counts[i] > values)
        throw SimError(at + displs_name + "[" + std::to_string(i) + "] " +
                       std::to_string(displs[i]) + " + " + counts_name + "[" +
                       std::to_string(i) + "] " + std::to_string(counts[i]) +
                       " exceeds the " + std::to_string(values) +
                       " values of " + buf +
                       " (check counts and element_size)");
  };
  check(graph.destinations, "destinations", args.sendbuf.size(), "sendbuf",
        args.sendcounts, "sendcounts", args.sdispls, "sdispls");
  check(graph.sources, "sources", args.recvbuf.size(), "recvbuf",
        args.recvcounts, "recvcounts", args.rdispls, "rdispls");
  if (!need_idx) return;
  // A dedup plan routes by gid: every value needs its index.
  for (const auto& [n, idx, values, buf] :
       {std::tuple{args.send_idx.size(), "send_idx", args.send_values(),
                   "sendbuf"},
        std::tuple{args.recv_idx.size(), "recv_idx", args.recv_values(),
                   "recvbuf"}})
    if (n < values)
      throw SimError(at + idx + " has " + std::to_string(n) +
                     " entries for the " + std::to_string(values) +
                     " values of " + buf + " (dedup needs one per value)");
}

void reject_duplicate_edges(const simmpi::DistGraph& graph, const char* who) {
  auto check = [who](std::span<const int> ranks, const char* what) {
    std::vector<int> sorted(ranks.begin(), ranks.end());
    std::sort(sorted.begin(), sorted.end());
    auto it = std::adjacent_find(sorted.begin(), sorted.end());
    if (it != sorted.end())
      throw SimError(
          std::string(who) + ": locality methods require unique " +
          std::string(what) + " (rank " + std::to_string(*it) +
          " appears more than once; merge the segments or use "
          "Method::standard)");
  };
  check(graph.destinations, "destinations");
  check(graph.sources, "sources");
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
