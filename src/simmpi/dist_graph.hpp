#pragma once
/// \file dist_graph.hpp
/// \brief Distributed graph topology creation (MPI_Dist_graph_create_adjacent).
///
/// Two algorithm variants reproduce the implementation gap measured by the
/// paper in Figure 6:
///  * `GraphAlgo::allgather` ("spectrum-like"): gathers the full global edge
///    list on every rank and performs O(P) communicator bookkeeping — the
///    heavyweight pattern behind Spectrum MPI's poor strong scaling.
///  * `GraphAlgo::handshake` ("mvapich-like"): purely local adjacency copy
///    plus a sparse zero-byte handshake with the declared neighbors and a
///    small allreduce for consistency — the lightweight pattern that scales.

#include <vector>

#include "simmpi/coll.hpp"
#include "simmpi/engine.hpp"

namespace simmpi {

/// Which construction algorithm to simulate (see file comment).
enum class GraphAlgo {
  allgather,  ///< heavy, O(P) per rank ("spectrum-like")
  handshake,  ///< light, O(degree) per rank ("mvapich-like")
};

/// A neighborhood topology: the communicator plus adjacency, as returned by
/// MPI_Dist_graph_create_adjacent.  `sources`/`destinations` hold *local*
/// ranks of the attached communicator.
struct DistGraph {
  Comm comm;                      ///< dedicated topology communicator
  std::vector<int> sources;       ///< ranks this rank receives from
  std::vector<int> destinations;  ///< ranks this rank sends to
};

/// Create an adjacent distributed-graph topology.  Collective over `comm`;
/// `sources` and `destinations` are local ranks.  The returned DistGraph
/// uses a fresh communicator so topology traffic cannot collide with the
/// parent's.  Each algorithm charges its modeled CPU bookkeeping
/// (dist_graph.cpp) on top of the simulated messages.
Task<DistGraph> dist_graph_create_adjacent(Context& ctx, Comm comm,
                                           std::vector<int> sources,
                                           std::vector<int> destinations,
                                           GraphAlgo algo);

}  // namespace simmpi
