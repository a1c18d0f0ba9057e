#pragma once
/// \file alltoall.hpp
/// \brief Dense locality-aware persistent `alltoall{,v}` collectives.
///
/// The paper's aggregation idea applied to the *dense* personalized
/// exchange (`MPI_Alltoall{,v}`), where every rank holds one segment for
/// every other rank.  One entry point, `alltoallv_init`, dispatches over
/// `AlltoallMethod`:
///
///  * `AlltoallMethod::standard` — pairwise persistent point-to-point, one
///    message per (rank, rank) pair: P-1 inter-rank messages per rank,
///    O(P^2) network messages total;
///  * `AlltoallMethod::node_aggregated` — the two-stage PPN-aware scheme
///    of MPI Advance's `PMPI_Alltoallv`: traffic toward each remote region
///    is gathered onto one local leader per destination region, crosses
///    the region boundary as a single message per directed region pair
///    (R·(R-1) network messages), and is scattered locally on arrival;
///  * `AlltoallMethod::bruck` — locality-aware log-P Bruck, the algorithm
///    the reference repository left as a TODO: every rank first funnels
///    its remote-bound data to its region leader (intra-region), then the
///    R region leaders run ⌈log2 R⌉ Bruck rounds in which each region
///    forwards *one* aggregated message per round (R·⌈log2 R⌉ network
///    messages), and finally each leader scatters the arrived data to its
///    region members.  Minimizes message count at the cost of forwarding
///    values through up to ⌈log2 R⌉-1 intermediate regions.
///
/// Arguments reuse the byte-generic `AlltoallvArgs` of the neighbor
/// collectives with one difference: counts/displacements carry one entry
/// per *communicator rank* (the dense adjacency), not per neighbor.
///
/// Lifecycle, plan split and statistics mirror the neighbor collectives,
/// and both entry points share one dispatcher (init.cpp): init once
/// (collective for the aggregated methods), then `start`/`wait` per
/// iteration; `NeighborAlltoallv::stats()` counts intra-region ("local")
/// and inter-region ("global") messages on the sender side, so
/// `verify_stats()` and the measurement harness work unchanged.
/// `node_aggregated` builds the neighbor `LocalityPlan` over the dense
/// graph (`impl::dense_graph`); `bruck` has its own `BruckPlan`.  Both
/// derive from `PlanBase` and, like neighbor plans, can be inspected
/// through `NeighborAlltoallv::plan()`.

#include <memory>
#include <vector>

#include "mpix/neighbor.hpp"

namespace mpix {

/// The three dense implementations, selected at init.
enum class AlltoallMethod {
  standard,         ///< pairwise persistent p2p (O(P^2) messages)
  node_aggregated,  ///< two-stage PPN-aware aggregation (R·(R-1))
  bruck,            ///< locality-aware log-P Bruck (R·⌈log2 R⌉)
};

inline constexpr AlltoallMethod kAllAlltoallMethods[] = {
    AlltoallMethod::standard, AlltoallMethod::node_aggregated,
    AlltoallMethod::bruck};

/// Human-readable method name ("standard", "node_aggregated", "bruck").
const char* to_string(AlltoallMethod m);

/// The plan of `AlltoallMethod::bruck`: the complete rotation schedule of
/// this rank — its region's ⌈log2 R⌉ Bruck rounds resolved into per-round
/// peers, message sizes and value-run copy lists — plus the intra-region
/// fill/deliver routing.  Built collectively (region metadata allgather +
/// one comm-wide exchange of per-region traffic totals); binding buffers
/// to it is purely local.
struct BruckPlan : PlanBase {
  int regions = 0;  ///< R: regions spanned by the communicator

  bool is_leader = false;  ///< leads its region (its smallest comm rank)

  /// Remote-bound values, sendbuf -> the leader's resident buffer.  With
  /// R > 1, each member sends one message to its leader (`fill.sends[0]`,
  /// zero values included: the channel structure never depends on
  /// counts); the leader receives one per member (`fill.recvs`) and
  /// places its own row with `fill.self`.
  StagedPhase fill;

  /// One Bruck round of my region: ship `gather`ed resident values to the
  /// next region, retain `keep`, splice the incoming message via `merge`.
  /// gather/keep read the current resident buffer; keep/merge write the
  /// next one (ping-pong).
  struct Round {
    int send_peer = -1, recv_peer = -1;  ///< comm-local leader ranks
    long send_values = 0, recv_values = 0;
    std::vector<CopyRun> gather;  ///< resident(cur) -> round message
    std::vector<CopyRun> keep;    ///< resident(cur) -> resident(next)
    std::vector<CopyRun> merge;   ///< round recv message -> resident(next)
  };
  std::vector<Round> rounds;

  /// Arrived values, the leader's final resident buffer -> recvbuf: one
  /// message per member (`deliver.sends` on the leader,
  /// `deliver.recvs[0]` on the member) plus the leader's own share
  /// (`deliver.self`).
  StagedPhase deliver;

  /// The leader's staging sizes; 0 on members, which run no rounds.
  long resident_values = 0;  ///< resident buffer size (max over epochs)
  long round_send_max = 0;   ///< largest per-round outgoing message
  long round_recv_max = 0;   ///< largest per-round incoming message
};

/// Create a persistent dense all-to-all-v (the dense analogue of
/// `neighbor_alltoallv_init`).  Counts/displacements must carry one entry
/// per rank of `comm`, in comm-rank order; self traffic (entry
/// `comm.rank()`) is delivered like any other segment.  Collective over
/// `comm` for the aggregated methods; `standard` never communicates
/// during init.  Throws SimError naming this entry point when the
/// arguments do not fit the communicator.
simmpi::Task<std::unique_ptr<NeighborAlltoallv>> alltoallv_init(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args,
    AlltoallMethod method = AlltoallMethod::standard, Options opts = {});

/// Typed-argument overload, normalizing the wrapper to the byte-based
/// core inside a plain (non-coroutine) function (see the g++ 12 warning
/// on the neighbor typed overloads; the same idiom applies here).
template <class T>
simmpi::Task<std::unique_ptr<NeighborAlltoallv>> alltoallv_init(
    simmpi::Context& ctx, simmpi::Comm comm, const AlltoallvArgsT<T>& args,
    AlltoallMethod method = AlltoallMethod::standard, Options opts = {}) {
  AlltoallvArgs bytes = args;
  return alltoallv_init(ctx, std::move(comm), std::move(bytes), method,
                        std::move(opts));
}

}  // namespace mpix
