#pragma once
/// \file neighbor.hpp
/// \brief Persistent neighborhood all-to-all-v collectives (the paper's core).
///
/// This is the reproduction of MPI Advance's persistent
/// `MPIX_Neighbor_alltoallv_init`.  One entry point,
/// `neighbor_alltoallv_init`, dispatches over `Method`:
///
///  * `Method::standard` — wraps persistent point-to-point messages, one per
///    neighbor (paper Algorithms 1-3, Section 3.1);
///  * `Method::locality` ("partially optimized") — three-step aggregation:
///    traffic toward each remote region is funneled through one local
///    leader per destination region, crossing the region boundary as a
///    single message (Algorithms 4-6, Section 3.2);
///  * `Method::locality_dedup` ("fully optimized") — an API extension
///    passes a unique index per value (`send_idx`/`recv_idx`); values bound
///    for several ranks of the same remote region then cross the boundary
///    once (Section 3.3).
///
/// Payloads are datatype-generic, mirroring `MPI_Datatype` extents: the core
/// `AlltoallvArgs` carries raw bytes plus an `element_size`, and the typed
/// wrapper `AlltoallvArgsT<T>` converts any trivially copyable value type.
/// Counts and displacements are always in *values*, as in MPI.
///
/// Lifecycle mirrors the MPI 4 persistent API: init once (all setup and
/// load balancing is paid here and amortized), then `start`/`wait` per
/// iteration.  Buffers are bound at init and must outlive the collective;
/// `start` reads the current `sendbuf`, `wait` fills `recvbuf`.
///
/// The locality-aware methods split init into two halves: a buffer-free
/// `LocalityPlan` (all setup *communication* — region metadata gather,
/// leader load balancing, root handshake — and all routing computation),
/// and a purely local binding step that attaches buffers and channels.
/// Every plan kind derives from `PlanBase`, which holds the fields all
/// kinds share (the direct intra-region messages, statistics).  One
/// dispatcher (init.cpp) serves both this entry point and the dense
/// `alltoallv_init`: it validates the arguments, builds the plan, then
/// binds it.  Every init builds its own plan; the set-up lives in the
/// collective the caller holds, which pays it once over all its
/// start/wait iterations.

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "simmpi/dist_graph.hpp"
#include "simmpi/engine.hpp"

namespace mpix {

using gidx = long long;  ///< global value index (paper's API extension)

/// Datatype-generic MPI_Neighbor_alltoallv_init arguments.  The payload is
/// a byte span holding `sendbuf.size() / element_size` values of
/// `element_size` bytes each (the simulated `MPI_Datatype` extent).
/// Counts/displacements are in *values*; `sdispls[i]` locates the segment
/// of `sendbuf` bound for `graph.destinations[i]`, `rdispls[i]` the segment
/// of `recvbuf` arriving from `graph.sources[i]`.  Prefer building through
/// `AlltoallvArgsT<T>` unless the element size is only known at runtime.
struct AlltoallvArgs {
  std::span<const std::byte> sendbuf;
  std::vector<int> sendcounts;
  std::vector<int> sdispls;
  std::span<std::byte> recvbuf;
  std::vector<int> recvcounts;
  std::vector<int> rdispls;
  std::size_t element_size = sizeof(double);  ///< bytes per value

  /// Optional unique indices (required for the dedup variant): send_idx[k]
  /// identifies the value at position k of `sendbuf`; recv_idx[k] the value
  /// expected at position k of `recvbuf`.  Two sendbuf positions with equal
  /// send_idx must hold equal values, and the k-th value of a (src, dst)
  /// segment must carry the same index on both sides.
  std::span<const gidx> send_idx{};
  std::span<const gidx> recv_idx{};

  /// Number of values in the send / receive buffer.
  std::size_t send_values() const { return sendbuf.size() / element_size; }
  std::size_t recv_values() const { return recvbuf.size() / element_size; }
};

/// Typed convenience wrapper: the same arguments over `T` payloads.
/// Converts implicitly to the byte-based `AlltoallvArgs`, so it can be
/// passed directly to `neighbor_alltoallv_init`.
template <class T>
struct AlltoallvArgsT {
  static_assert(std::is_trivially_copyable_v<T>,
                "neighbor collectives move raw bytes");

  std::span<const T> sendbuf;
  std::vector<int> sendcounts;
  std::vector<int> sdispls;
  std::span<T> recvbuf;
  std::vector<int> recvcounts;
  std::vector<int> rdispls;
  std::span<const gidx> send_idx{};
  std::span<const gidx> recv_idx{};

  /// Byte view with `element_size = sizeof(T)`.
  operator AlltoallvArgs() const& {
    return AlltoallvArgs{.sendbuf = std::as_bytes(sendbuf),
                         .sendcounts = sendcounts,
                         .sdispls = sdispls,
                         .recvbuf = std::as_writable_bytes(recvbuf),
                         .recvcounts = recvcounts,
                         .rdispls = rdispls,
                         .element_size = sizeof(T),
                         .send_idx = send_idx,
                         .recv_idx = recv_idx};
  }
  operator AlltoallvArgs() && {
    return AlltoallvArgs{.sendbuf = std::as_bytes(sendbuf),
                         .sendcounts = std::move(sendcounts),
                         .sdispls = std::move(sdispls),
                         .recvbuf = std::as_writable_bytes(recvbuf),
                         .recvcounts = std::move(recvcounts),
                         .rdispls = std::move(rdispls),
                         .element_size = sizeof(T),
                         .send_idx = send_idx,
                         .recv_idx = recv_idx};
  }
};

/// The three implementations of the paper, selected at init.
enum class Method {
  standard,        ///< persistent point-to-point wrap (Section 3.1)
  locality,        ///< locality-aware aggregation (Section 3.2)
  locality_dedup,  ///< aggregation + duplicate removal (Section 3.3)
};

inline constexpr Method kAllMethods[] = {Method::standard, Method::locality,
                                         Method::locality_dedup};

/// Human-readable method name ("standard", "locality", "locality+dedup").
const char* to_string(Method m);

/// Per-rank message statistics of one collective instance (sender side),
/// feeding Figures 8-10.  "local" = intra-region tiers, "global" =
/// inter-region (network) messages.  Point-to-point sends a rank posts to
/// itself go through the simulated MPI layer and count as local messages;
/// the locality plan's staging self-copies (when a rank is its own leader)
/// are plain memcpys and are not counted.  Every method counts each send it
/// posts by one rule, `detail::count_send`.
struct NeighborStats {
  long local_msgs = 0;
  long global_msgs = 0;
  long local_values = 0;
  long global_values = 0;
  long max_global_msg_values = 0;
  /// Per switch-link tier (tier 0 = leaf up/down links; see
  /// simmpi::Machine::num_link_tiers): network messages this rank sends
  /// whose destination subtree first joins its own *above* that tier,
  /// i.e. the static crossing counts of the plan.  Sized lazily by the
  /// first counted crossing, so it stays empty on flat machines and for
  /// ranks whose traffic never leaves the leaf subtree.
  std::vector<long> link_msgs = {};
};

/// A contiguous value copy: `len` values from position `src` of the source
/// array to position `dst` of the destination array.  Every staged copy of
/// the aggregated collectives (LocalityPlan, BruckPlan) is a list of these,
/// built with `detail::push_run` (which coalesces abutting runs) and
/// applied with `detail::copy_runs`.
struct CopyRun {
  long src = 0;
  long dst = 0;
  long len = 0;
  bool operator==(const CopyRun&) const = default;
};

/// One direct (unstaged) message of an aggregated collective: `count`
/// values at value offset `displ` of a user or staging buffer, to or from
/// comm-local rank `peer`.  `impl::ChannelSet::declare` binds a list of
/// them.
struct DirectMsg {
  int peer = -1;
  long displ = 0;
  long count = 0;
};

/// One leader-mediated intra-region staging phase of an aggregated
/// collective, moving values from a source array to a destination array
/// (Section 3.2's s and r phases; Bruck's fill and deliver).  Each
/// message is one in-place channel: a send's `runs` gather source
/// positions (`src`) into message positions (`dst`), covering
/// [0, values) exactly once in message order; a receive's `runs` scatter
/// message positions (`src`) to destination positions (`dst`), and a
/// dedup scatter may read one message value into several positions.
/// `self` copies source to destination directly, for the values a rank
/// would otherwise send itself.  `detail::BoundPhase` runs a phase.
struct StagedPhase {
  struct Msg {
    int peer = -1;  ///< comm-local rank
    long values = 0;
    std::vector<CopyRun> runs = {};
  };
  std::vector<Msg> sends, recvs;
  std::vector<CopyRun> self;
};

/// The buffer-free half of every aggregated collective's init (the
/// neighbor methods' LocalityPlan, the dense methods' BruckPlan in
/// alltoall.hpp): built collectively by init, then bound to buffers and
/// channels locally.  This base holds what every kind carries.
///
/// All offsets are in *values*; binding scales them by
/// `AlltoallvArgs::element_size`.  Instances are immutable once built:
/// the bound collective holds its plan by shared_ptr-to-const.
struct PlanBase {
  virtual ~PlanBase() = default;

  /// Intra-region traffic straight between the user buffers.
  std::vector<DirectMsg> l_sends, l_recvs;

  NeighborStats stats;  ///< fixed at plan time (independent of payload)
};

/// The plan of the locality methods (and of dense `node_aggregated`):
/// every routing decision for one (pattern, machine, method) combination —
/// leader assignments resolved into per-message peers, gather/scatter
/// copy-run lists, staging layouts, message statistics.  Building it is
/// collective: a gatherv of edge headers to each region's root, which
/// assigns the leaders, handshakes with the other roots, broadcasts the
/// leader tables and scatters each leader its pairs' headers; for dedup
/// plans, an alltoallv then sends each leader its pairs' gids.
///
/// Every staged (intra-region) copy is a list of `CopyRun`s, coalesced as
/// the plan build enumerates values: no per-value index map is stored, and
/// a non-dedup map holds at most one run per edge.  Staged messages move
/// straight between the user or staging buffers and the engine
/// (Request::send_in_place / recv_in_place), so a bound collective owns no
/// per-message buffer.
struct LocalityPlan : PlanBase {
  bool dedup = false;

  /// Initial redistribution, sendbuf -> s_stage: sources send, leaders
  /// receive, and `s.self` stages what a rank leads itself.
  StagedPhase s;
  /// Final redistribution, g_stage -> recvbuf: leaders send, destinations
  /// receive, and `r.self` delivers what a rank received as leader.
  StagedPhase r;

  /// One inter-region message per (region pair, direction): sends read
  /// s_stage, receives write g_stage.
  std::vector<DirectMsg> g_sends, g_recvs;
  long s_stage_values = 0;  ///< send-side staging buffer size, in values
  long g_stage_values = 0;  ///< recv-side staging buffer size, in values
};

/// A persistent neighborhood collective (abstract).
class NeighborAlltoallv {
 public:
  virtual ~NeighborAlltoallv() = default;
  /// Begin one exchange (MPI_Start): reads the bound sendbuf.
  virtual simmpi::Task<> start(simmpi::Context& ctx) = 0;
  /// Complete the exchange (MPI_Wait): fills the bound recvbuf.
  virtual simmpi::Task<> wait(simmpi::Context& ctx) = 0;
  /// Message statistics for this rank (fixed at init).
  virtual NeighborStats stats() const = 0;
  /// The plan behind this instance, for read-only inspection: a
  /// LocalityPlan for the locality methods and `node_aggregated`, a
  /// BruckPlan for `bruck`, null for the planless standard methods.
  virtual std::shared_ptr<const PlanBase> plan() const { return nullptr; }
};

/// Opt-in reliable delivery for the persistent collectives: every
/// *network* data channel carries a per-channel sequence number, the
/// receiver acknowledges each payload with a control message, and the
/// sender retransmits on a virtual-time timeout that doubles per
/// retransmit (built on simmpi::Context::wait_until), giving up after 16
/// retransmits.  With a FaultPlan dropping messages, recvbufs stay
/// byte-identical to the fault-free run — up to that retry budget.
/// Intra-node channels are never wrapped: the fault model only drops
/// network messages.
/// Must be set uniformly across the ranks of a collective (like every
/// option that shapes the message schedule).
struct Reliability {
  bool enabled = false;
  /// Virtual seconds from posting a send until the first retransmit.
  /// Choose comfortably above the expected network round trip, or the
  /// protocol retransmits spuriously (correct, but noisy and slow).
  double timeout = 1e-3;
};

/// Tunable knobs of `neighbor_alltoallv_init`.
struct Options {
  /// Leader assignment strategy of the locality methods: true =
  /// longest-processing-time load balancing over per-region value counts
  /// (default); false = round-robin (ablation baseline).
  bool lpt_balance = true;
  /// Reliable delivery over network channels (see Reliability).  Purely a
  /// binding-time property: no plan depends on it.
  Reliability reliability{};
};

// Options is frequently written as a braced temporary inside co_await'd
// init calls; g++ 12 double-destroys such temporaries (see the warning on
// the typed overloads below and docs/COROUTINE_PITFALLS.md), which is only
// harmless while Options stays trivially destructible.  Do not add owning
// members.
static_assert(std::is_trivially_destructible_v<Options>);

/// Create a persistent neighborhood collective (the paper's
/// MPIX_Neighbor_alltoallv_init).  Collective over the graph's
/// communicator for the locality methods; Method::standard never
/// communicates during init.  Throws SimError naming this entry point
/// when the arguments do not fit the graph.
simmpi::Task<std::unique_ptr<NeighborAlltoallv>> neighbor_alltoallv_init(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method = Method::standard, Options opts = {});

/// Typed-argument overloads, normalizing the wrapper to the byte-based
/// core inside a plain (non-coroutine) function.
///
/// \warning GCC 12 miscompiles a braced-init-list temporary materialized
/// inside a `co_await` full-expression (its buffers are double-destroyed,
/// however the callee takes it).  Build the arguments as a *named local*
/// or return them from a helper function — both are safe and are the
/// idiom used throughout this repository — instead of writing
/// `co_await neighbor_alltoallv_init(ctx, g, AlltoallvArgsT<T>{...}, m)`.
/// Minimal repro, idiom and guard checklist: docs/COROUTINE_PITFALLS.md.
template <class T>
simmpi::Task<std::unique_ptr<NeighborAlltoallv>> neighbor_alltoallv_init(
    simmpi::Context& ctx, const simmpi::DistGraph& graph,
    const AlltoallvArgsT<T>& args, Method method = Method::standard,
    Options opts = {}) {
  AlltoallvArgs bytes = args;
  return neighbor_alltoallv_init(ctx, graph, std::move(bytes), method,
                                 std::move(opts));
}

}  // namespace mpix
