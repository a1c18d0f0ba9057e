#pragma once
/// \file impl.hpp
/// \brief Internal plan builders and binders behind the one
/// persistent-collective dispatcher (init.cpp), and the plan-kind check it
/// uses.  Not part of the mpix API.
///
/// Every aggregated collective has the same two halves: a collective
/// `build_*_plan` coroutine that performs all setup communication and
/// returns an immutable plan, and a purely local `bind_*` that attaches
/// buffers and channels.  A binder trusts its plan: the dispatcher hands
/// it one it has just built from these arguments, or an `Options::plan`
/// it has checked with `detail::validate_plan_args`.

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
/// unchanged, with counts arrays indexed by comm rank.
simmpi::DistGraph dense_graph(const simmpi::Comm& comm);

/// Locality methods (and dense `node_aggregated` over `dense_graph`):
/// collectively build the plan of a pattern — all setup communication
/// happens here; payload spans are never read.  Takes the arguments by
/// value so the frame owns them for the plan build's lifetime.
///
/// The public entry points are deliberately *plain* functions delegating
/// to an internal coroutine: g++ 12 miscompiles by-value coroutine
/// parameters initialized from a user-defined conversion at the call site
/// (the `AlltoallvArgsT<T>` -> `AlltoallvArgs` conversion every typed
/// caller performs), double-destroying the converted temporary.  A regular
/// call boundary sidesteps the bug for every caller.
simmpi::Task<std::shared_ptr<const LocalityPlan>> build_locality_plan(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    bool dedup, bool lpt_balance);

/// Standard methods: persistent point-to-point wrap, one `ChannelSet` over
/// every neighbor (reliable.hpp decides which channels are wrapped).
/// Purely local setup.  This and the binders below trust
/// `opts.reliability`: the dispatcher validates it before any plan build.
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
/// schedule (bruck.cpp) over `graph = dense_graph(comm)`.  Payload spans
/// are never read.  Same plain-wrapper caveat as build_locality_plan.
simmpi::Task<std::shared_ptr<const BruckPlan>> build_bruck_plan(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args);

/// Dense `AlltoallMethod::bruck`: bind buffers and channels to a finished
/// BruckPlan over `graph = dense_graph(comm)`.  Purely local.
std::unique_ptr<NeighborAlltoallv> bind_bruck(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    std::shared_ptr<const BruckPlan> plan, const Options& opts);

}  // namespace mpix::impl
