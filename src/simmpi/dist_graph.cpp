#include "simmpi/dist_graph.hpp"

#include <algorithm>

namespace simmpi {

namespace {

// Modeled CPU costs of graph construction, seconds.
/// Per int of the gathered global edge list scanned (allgather algo).
constexpr double kScanPerInt = 2.0e-9;
/// Per member of communicator bookkeeping (allgather algo).
constexpr double kSetupPerRank = 2.0e-6;
/// Per neighbor of bookkeeping (handshake algo).
constexpr double kSetupPerNeighbor = 3.0e-7;
/// Per member of communicator *duplication* bookkeeping, paid by both
/// algorithms (every MPI_Dist_graph_create_adjacent dups the base comm).
constexpr double kDupPerRank = 3.0e-7;

/// Duplicate the communicator for topology use (deterministic, no traffic
/// beyond the split's allgather, mirroring MPI_Comm_dup cost behaviour).
Task<Comm> dup_for_topology(Context& ctx, Comm comm) {
  co_return co_await coll::comm_split(ctx, comm, /*color=*/0, comm.rank());
}

}  // namespace

Task<DistGraph> dist_graph_create_adjacent(Context& ctx, Comm comm,
                                           std::vector<int> sources,
                                           std::vector<int> destinations,
                                           GraphAlgo algo) {
  for (int s : sources)
    if (s < 0 || s >= comm.size())
      throw SimError("dist_graph_create_adjacent: source out of range");
  for (int d : destinations)
    if (d < 0 || d >= comm.size())
      throw SimError("dist_graph_create_adjacent: destination out of range");

  Comm topo = co_await dup_for_topology(ctx, comm);
  ctx.compute(kDupPerRank * static_cast<double>(comm.size()));

  if (algo == GraphAlgo::allgather) {
    // Heavyweight construction: every rank gathers the entire global edge
    // list, scans it to (re)derive and validate its own adjacency, and pays
    // O(P) communicator bookkeeping.
    std::vector<int> local;
    local.reserve(2 + sources.size() + destinations.size());
    local.push_back(static_cast<int>(destinations.size()));
    local.insert(local.end(), destinations.begin(), destinations.end());
    local.push_back(static_cast<int>(sources.size()));
    local.insert(local.end(), sources.begin(), sources.end());

    std::vector<int> counts;
    std::vector<int> global =
        co_await coll::allgatherv<int>(ctx, topo, std::move(local), &counts);

    // Re-derive my sources from everyone's destination lists (validating the
    // user-declared adjacency), scanning the full list as heavyweight
    // implementations do.
    ctx.compute(kScanPerInt * static_cast<double>(global.size()));
    ctx.compute(kSetupPerRank * static_cast<double>(comm.size()));

    std::vector<int> derived_sources;
    long pos = 0;
    for (int rank = 0; rank < topo.size(); ++rank) {
      const int ndest = global[pos++];
      for (int i = 0; i < ndest; ++i)
        if (global[pos + i] == topo.rank()) derived_sources.push_back(rank);
      pos += ndest;
      const int nsrc = global[pos++];
      pos += nsrc;
    }
    std::vector<int> declared = sources;
    std::sort(declared.begin(), declared.end());
    if (derived_sources != declared)
      throw SimError(
          "dist_graph_create_adjacent: declared sources do not match "
          "destinations declared by peers");
    co_await coll::barrier(ctx, topo);
    co_return DistGraph{topo, std::move(sources), std::move(destinations)};
  }

  // Lightweight construction: zero-byte handshake with declared neighbors,
  // O(degree) bookkeeping, and a global degree checksum.
  const int tag = ctx.engine().next_coll_tag(topo);
  std::vector<Request> reqs;
  reqs.reserve(sources.size() + destinations.size());
  for (int d : destinations) reqs.push_back(Request::send(topo, {}, d, tag));
  for (int s : sources) reqs.push_back(Request::recv(topo, {}, s, tag));
  for (auto& r : reqs) r.start(ctx);
  co_await ctx.wait_all(std::span<Request>(reqs));

  ctx.compute(kSetupPerNeighbor *
              static_cast<double>(sources.size() + destinations.size()));
  const long out = static_cast<long>(destinations.size());
  const long in = static_cast<long>(sources.size());
  const long delta =
      co_await coll::allreduce<long>(ctx, topo, out - in,
                                     [](long a, long b) { return a + b; });
  if (delta != 0)
    throw SimError(
        "dist_graph_create_adjacent: global in/out degree mismatch");
  co_return DistGraph{topo, std::move(sources), std::move(destinations)};
}

}  // namespace simmpi
