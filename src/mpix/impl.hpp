#pragma once
/// \file impl.hpp
/// \brief Internal factories behind the public `neighbor_alltoallv_init`
/// and `alltoallv_init` dispatchers (init.cpp, alltoall.cpp), and the one
/// plan-kind check they share.  Not part of the mpix API.

#include <memory>
#include <string>

#include "mpix/alltoall.hpp"
#include "mpix/neighbor.hpp"

namespace mpix::impl {

/// `plan` (an `Options::plan`) as the kind `P` a method binds, sharing
/// ownership with the plan's owner.  Throws a SimError naming `who` when
/// the plan is of another kind.
template <class P>
std::shared_ptr<const P> plan_as(const PlanBase& plan, const char* who) {
  auto typed = std::dynamic_pointer_cast<const P>(plan.shared_from_this());
  if (!typed)
    throw simmpi::SimError(std::string(who) +
                           ": Options::plan is the wrong plan kind");
  return typed;
}

/// Modeled CPU cost per metadata word of setup parsing and plan building,
/// charged by the locality and Bruck plan builds and bindings.
inline constexpr double kSetupComputePerWord = 1.5e-9;

/// The dense adjacency: every rank is both source and destination (self
/// included), in comm-rank order — the neighbor machinery then applies
/// unchanged, with counts arrays indexed by comm rank (alltoall.cpp).
simmpi::DistGraph dense_graph(const simmpi::Comm& comm);

/// Locality methods (and dense `node_aggregated`): collectively build the
/// plan of a pattern — all setup communication happens here; payload
/// spans are never read.  Takes the pattern by value so the frame owns it
/// for the plan build's lifetime.
///
/// The public entry points are deliberately *plain* functions delegating
/// to internal coroutines: g++ 12 miscompiles by-value coroutine
/// parameters initialized from a user-defined conversion at the call site
/// (the `AlltoallvArgsT<T>` -> `AlltoallvArgs` conversion every typed
/// caller performs), double-destroying the converted temporary.  A regular
/// call boundary sidesteps the bug for every caller.
simmpi::Task<std::shared_ptr<const LocalityPlan>> build_locality_plan(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts);

/// Standard method: persistent point-to-point wrap, one `ChannelSet` over
/// every neighbor (reliable.hpp decides which channels are wrapped).
/// Purely local setup.  The factories below trust `opts.reliability`: the
/// public dispatchers validate it before any plan build.
std::unique_ptr<NeighborAlltoallv> make_standard(simmpi::Context& ctx,
                                                 const simmpi::DistGraph& graph,
                                                 AlltoallvArgs args,
                                                 const Options& opts);

/// Locality methods: bind buffers and channels to a finished plan.  Purely
/// local — all setup communication already happened in the plan build.
std::unique_ptr<NeighborAlltoallv> bind_locality(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const LocalityPlan> plan, const Options& opts);

/// Dense `AlltoallMethod::bruck`: collectively build the rotation
/// schedule (bruck.cpp).  Counts/displacements carry one entry per comm
/// rank; payload spans are never read.  Same plain-wrapper caveat as
/// build_locality_plan.
simmpi::Task<std::shared_ptr<const BruckPlan>> build_bruck_plan(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args);

/// Dense `AlltoallMethod::bruck`: bind buffers and channels to a finished
/// BruckPlan.  Purely local.
std::unique_ptr<NeighborAlltoallv> bind_bruck(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args,
    std::shared_ptr<const BruckPlan> plan, const Options& opts);

}  // namespace mpix::impl
