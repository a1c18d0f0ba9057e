#pragma once
/// \file detail.hpp
/// \brief Helpers behind the collectives: argument validation, traffic
/// metadata serialization, leader load balancing, the canonical layout of
/// inter-region messages (all pure, so unit-testable without the
/// simulator), and `BoundPhase`, the driver of the aggregated
/// collectives' intra-region staging phases.

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "mpix/neighbor.hpp"

namespace mpix::detail {

/// Validate the graph's peers against its communicator, and
/// counts/displacements against the graph and buffers (in values, scaled
/// by `args.element_size`); with `need_idx`, also require send_idx/recv_idx
/// covering the buffers.  Throws SimError prefixed with `who` (the entry
/// point), naming the offending array: its size against the degree, or its
/// first bad index and value.
void validate_args(const simmpi::DistGraph& graph, const AlltoallvArgs& args,
                   bool need_idx, const char* who);

/// Reject duplicate entries in the graph's destination or source lists.
/// The standard method delivers duplicates deterministically (all segments
/// toward one peer share a tag; the engine's phase commit keeps each
/// (src, dst, tag) channel FIFO in program order), but the locality
/// methods key routing tables by peer rank, which would collapse
/// duplicate edges and misroute their segments — so plan construction
/// refuses them up front.  Throws SimError prefixed with `who` (the entry
/// point), naming the duplicated rank.
void reject_duplicate_edges(const simmpi::DistGraph& graph, const char* who);

/// The one counting rule of `NeighborStats`: count a message of `values`
/// values that this rank sends to comm-local rank `peer`.  A send to a
/// peer in the sender's region (itself included) is local.  Any other is
/// global: it also updates the largest message size and adds one
/// `link_msgs` count per link tier the pair's LCA path crosses (none on
/// flat machines or under one leaf switch), mirroring what the engine
/// charges.
void count_send(NeighborStats& stats, const simmpi::Comm& comm, int peer,
                long values);

/// One directed traffic edge between comm-local ranks, as the region root
/// parses it from its members' headers and a leader reads it from the
/// headers of the pairs it leads.  An Edge owns no gid storage: on the
/// leader of the edge's region pair, in a dedup plan build, `gids` views
/// the gid block that the leader gathered from the edge's owner, so it
/// must not outlive that block.
struct Edge {
  int src = -1;
  int dst = -1;
  int count = 0;
  std::span<const gidx> gids;  ///< per-value indices (led dedup pairs only)

  friend bool operator<(const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  }
};

/// Serialize this rank's out/in edge headers: its rank, then per direction
/// the edge count and a (peer, value count) pair per edge.
std::vector<long long> serialize_edges(const simmpi::DistGraph& graph,
                                       const AlltoallvArgs& args);

/// Parse concatenated rank blobs back into edge lists, sorted by (src,
/// dst).  `out_edges` gets one entry per (publisher, destination),
/// `in_edges` one per (source, publisher); no edge views any gids.  Throws
/// SimError on a truncated or corrupt blob, such as a negative edge count.
void parse_edges(std::span<const long long> data, std::vector<Edge>& out_edges,
                 std::vector<Edge>& in_edges);

/// Assign each region (loads given as (region id, total values), sorted by
/// region id) to one of `nlocal` local cores.  Returns core indices aligned
/// with `loads`.  `lpt` = longest-processing-time balancing; otherwise
/// round-robin.  Deterministic: the region root computes it once for the
/// whole region.
std::vector<int> assign_leaders(std::span<const std::pair<int, long>> loads,
                                int nlocal, bool lpt);

/// Canonical composition of the single inter-region message of one region
/// pair, derived from the pair's edge set (sorted ascending by (src, dst)).
/// Both the sending and the receiving region compute this independently
/// from their own copy of the metadata and must agree; hence everything is
/// deterministic in the edge set.
struct PairLayout {
  long total = 0;  ///< values crossing the region boundary

  /// Partial (no dedup): one contiguous segment per edge, in edge order;
  /// `segments[e]` is edge e's value offset within the message.
  std::vector<long> segments;

  /// Dedup: per source rank, sorted unique gids at a block offset.
  struct SrcBlock {
    int src;
    long offset;
    std::vector<gidx> gids;  ///< sorted ascending, unique

    /// Value offset of `gid` within the message.
    long find(gidx gid) const;
  };
  std::vector<SrcBlock> src_blocks;

  /// Dedup: the block of source `src`.
  const SrcBlock& block(int src) const;
};

PairLayout pair_layout(std::span<const Edge* const> edges, bool dedup);

/// Sorted unique gids of one edge's value list.
std::vector<gidx> unique_sorted(std::span<const gidx> gids);

/// Append a run of `len` values (none when `len` <= 0), coalescing with the
/// previous run when both its source and destination abut.  Inline: the
/// dedup plan builds call it once per value.
inline void push_run(std::vector<CopyRun>& runs, long src, long dst,
                     long len) {
  if (len <= 0) return;
  if (!runs.empty() && runs.back().src + runs.back().len == src &&
      runs.back().dst + runs.back().len == dst) {
    runs.back().len += len;
    return;
  }
  runs.push_back({src, dst, len});
}

/// Apply value runs from `from` to `to`, scaling positions by the element
/// size `es` (one memcpy per run).
inline void copy_runs(std::span<const std::byte> from, std::span<std::byte> to,
                      std::span<const CopyRun> runs, std::size_t es) {
  for (const CopyRun& r : runs)
    std::memcpy(to.data() + static_cast<std::size_t>(r.dst) * es,
                from.data() + static_cast<std::size_t>(r.src) * es,
                static_cast<std::size_t>(r.len) * es);
}

/// A StagedPhase bound to one in-place channel per message
/// (Request::send_in_place / recv_in_place) on one tag: the single driver
/// of every staging phase of the aggregated collectives.  Sends gather
/// straight into their arena payload and receives scatter straight out of
/// the sender's, so no value is copied twice.  The runs live in the
/// shared plan, which must outlive the binding.
class BoundPhase {
 public:
  BoundPhase() = default;
  BoundPhase(const StagedPhase& phase, const simmpi::Comm& comm, int tag,
             std::size_t element_size);

  /// Run the phase once, moving values from `from` to `to`: gather and
  /// post every send, copy `self`, start every receive, scatter each as
  /// it completes, then complete the sends.
  simmpi::Task<> run(simmpi::Context& ctx, std::span<const std::byte> from,
                     std::span<std::byte> to);

 private:
  struct Msg {
    std::span<const CopyRun> runs;
    simmpi::Request req;
  };
  std::vector<Msg> sends_, recvs_;
  std::span<const CopyRun> self_;
  std::size_t es_ = 0;
};

/// Compose `to_msg` (source -> message positions, covering the message in
/// order) with `from_msg` (message -> destination positions, message
/// positions non-decreasing): the runs moving source values straight to
/// their destinations, in `from_msg` order.  Builds a self copy from the
/// two halves of a message a rank would send to itself.
std::vector<CopyRun> compose_runs(std::span<const CopyRun> to_msg,
                                  std::span<const CopyRun> from_msg);

}  // namespace mpix::detail
