#pragma once
/// \file pattern.hpp
/// \brief Deterministic, seedable communication-workload generators.
///
/// The paper's sweeps exercise exactly one traffic shape — AMG halo
/// exchanges.  This layer turns the repo into a general communication
/// laboratory: a registry of `PatternSpec` generators (stencil halos,
/// N-to-1 incast, checkpoint-style bursty I/O, random sparse graphs with
/// locality skew, overlap windows) each emitting the same adjacency +
/// counts shapes the `mpix` persistent collectives consume, so every
/// generated pattern runs through every existing method unchanged.
///
/// Everything here is a pure function of (machine shape, PatternParams):
/// no global RNG, no host-dependent state.  Payload values are derived
/// from per-value global indices (`gid`s), so the dedup method's
/// precondition — equal index implies equal value — holds by construction
/// and received buffers can be verified byte-for-byte against a local
/// recomputation on any rank.  The determinism contract extends to the
/// generators: a workload is bit-identical for every sim/build width.

#include <cstddef>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mpix/neighbor.hpp"
#include "simmpi/machine.hpp"

namespace patterns {

/// One rank's side of a generated workload: ascending neighbor lists plus
/// per-neighbor value counts and the usual exclusive-prefix displacements,
/// exactly the shape `mpix::AlltoallvArgs` and
/// `simmpi::dist_graph_create_adjacent` consume.
struct RankExchange {
  std::vector<int> destinations;
  std::vector<int> sendcounts;
  std::vector<int> sdispls;
  std::vector<int> sources;
  std::vector<int> recvcounts;
  std::vector<int> rdispls;

  long send_values() const {
    return std::accumulate(sendcounts.begin(), sendcounts.end(), 0L);
  }
  long recv_values() const {
    return std::accumulate(recvcounts.begin(), recvcounts.end(), 0L);
  }
  bool operator==(const RankExchange&) const = default;
};

/// Generator knobs.  Each pattern reads the subset that applies to it and
/// ignores the rest; defaults give a small but non-trivial workload on any
/// machine.
struct PatternParams {
  int values = 8;        ///< base values per edge (pattern-scaled)
  unsigned seed = 1;     ///< decorrelates random patterns and payloads
  int fan_in = 0;        ///< incast: senders per sink; 0 = every other rank
  int sinks = 1;         ///< incast sinks / bursty-I/O aggregator count
  int degree = 4;        ///< random_sparse: destinations per rank
  double overlap_seconds = 0.0;  ///< simulated compute inside the window;
                                 ///< 0 = the pattern's own default
};

/// A fully materialized workload: per-rank exchanges plus the resolved
/// overlap-window length.  Generation is global (every rank's view in one
/// structure) so tests and the harness can check cross-rank consistency
/// and replay the same workload at several simulation widths.
struct Workload {
  std::string pattern;
  PatternParams params;
  int nranks = 0;
  double overlap_seconds = 0.0;  ///< simulated compute between start and wait
  std::vector<RankExchange> ranks;
};

/// A pattern generator: pure function of machine shape and params.
using Generator = Workload (*)(const simmpi::Machine&, const PatternParams&);

/// Registry entry.
struct PatternSpec {
  const char* name;
  const char* description;
  Generator make;
};

/// All registered patterns, in a fixed deterministic order.
std::span<const PatternSpec> registry();

/// Lookup by name; nullptr when unknown.
const PatternSpec* find(std::string_view name);

/// Generate by name; throws simmpi::SimError on unknown names.
Workload generate(std::string_view name, const simmpi::Machine& machine,
                  const PatternParams& params = {});

/// Uniform dense exchange: every rank sends `params.values` values to
/// every rank, self included — the workload of the dense alltoall sweeps
/// (harness::measure_pattern_dense).  Deliberately not in `registry()`,
/// so the registry-driven sweeps and tests keep their point sets.
Workload uniform_dense(const simmpi::Machine& machine,
                       const PatternParams& params = {});

// ---- payload construction and verification --------------------------

/// Global value index of the j-th value of edge (src -> dst).  A pure
/// function of the edge and the seed, so sender and receiver compute
/// matching `send_idx`/`recv_idx` annotations without communicating.
/// Indices are drawn from a small per-source pool, so a source sending to
/// several destinations repeats indices — exercising the dedup method.
mpix::gidx value_gid(int src, int dst, int j, unsigned seed);

/// The i-th payload byte of the value with global index `gid`.  Values
/// with equal gids hold equal bytes (the dedup precondition).
std::byte payload_byte(mpix::gidx gid, std::size_t i);

/// One rank's owning buffers for a workload: payload bytes plus the gid
/// annotations, ready to bind through `args_view`.
struct RankBuffers {
  std::vector<std::byte> sendbuf;
  std::vector<std::byte> recvbuf;
  std::vector<mpix::gidx> send_gids;
  std::vector<mpix::gidx> recv_gids;
};

/// Build rank `rank`'s buffers: sendbuf filled from the gid scheme,
/// recvbuf sized and cleared to the sentinel.
RankBuffers make_buffers(const Workload& wl, int rank,
                         std::size_t element_size = sizeof(double));

/// Reset recvbuf to the sentinel between iterations.
void clear_recv(RankBuffers& buf);

/// Byte view over `buf` for the sparse neighbor path (counts indexed by
/// neighbor position).  `buf` must outlive the returned args.
mpix::AlltoallvArgs args_view(const Workload& wl, int rank, RankBuffers& buf,
                              std::size_t element_size = sizeof(double));

/// Byte view for the dense `alltoallv_init` path: counts/displacements
/// carry one entry per communicator rank (zero for non-neighbors) but bind
/// the same compact buffers — neighbor lists are ascending, so the layouts
/// coincide.
mpix::AlltoallvArgs dense_args_view(const Workload& wl, int rank,
                                    RankBuffers& buf,
                                    std::size_t element_size = sizeof(double));

/// Number of mismatched bytes between recvbuf and the locally recomputed
/// expectation (0 = payload delivered correctly).
long verify_recv(const Workload& wl, int rank, const RankBuffers& buf,
                 std::size_t element_size = sizeof(double));

}  // namespace patterns
