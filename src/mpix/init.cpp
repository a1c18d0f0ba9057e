/// \file init.cpp
/// \brief The one persistent-collective dispatcher behind both public
/// entry points, `neighbor_alltoallv_init` and the dense `alltoallv_init`,
/// mirroring how MPI Advance exposes a single
/// MPIX_Neighbor_alltoallv_init whose implementation is selected at
/// initialization time.
///
/// Each method maps onto one of three bindings: the planless standard
/// wrap, a `LocalityPlan` (the locality methods and dense
/// `node_aggregated`, which applies them to `impl::dense_graph`), or a
/// `BruckPlan`.  The arguments are validated once, here, before any plan
/// build or channel, and every aggregated binding has the same shape:
/// build the plan collectively, then bind it locally.

#include <numeric>
#include <utility>

#include "mpix/detail.hpp"
#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"

namespace mpix {

using simmpi::SimError;

const char* to_string(Method m) {
  switch (m) {
    case Method::standard: return "standard";
    case Method::locality: return "locality";
    case Method::locality_dedup: return "locality+dedup";
  }
  throw SimError("mpix::to_string: invalid Method");
}

const char* to_string(AlltoallMethod m) {
  switch (m) {
    case AlltoallMethod::standard: return "standard";
    case AlltoallMethod::node_aggregated: return "node_aggregated";
    case AlltoallMethod::bruck: return "bruck";
  }
  throw SimError("mpix::to_string: invalid AlltoallMethod");
}

simmpi::DistGraph impl::dense_graph(const simmpi::Comm& comm) {
  simmpi::DistGraph g;
  g.comm = comm;
  g.destinations.resize(static_cast<std::size_t>(comm.size()));
  std::iota(g.destinations.begin(), g.destinations.end(), 0);
  g.sources = g.destinations;
  return g;
}

namespace {

/// What a method binds.
enum class Binding { standard, locality, locality_dedup, bruck };

Binding binding_of(Method m) {
  switch (m) {
    case Method::standard: return Binding::standard;
    case Method::locality: return Binding::locality;
    case Method::locality_dedup: return Binding::locality_dedup;
  }
  throw SimError("neighbor_alltoallv_init: invalid Method");
}

Binding binding_of(AlltoallMethod m) {
  switch (m) {
    case AlltoallMethod::standard: return Binding::standard;
    case AlltoallMethod::node_aggregated: return Binding::locality;
    case AlltoallMethod::bruck: return Binding::bruck;
  }
  throw SimError("alltoallv_init: invalid AlltoallMethod");
}

/// The dispatch coroutine.  Only ever invoked with arguments already
/// normalized by the public wrappers below (see impl.hpp on why the
/// public entry points must not be coroutines themselves); `who` names
/// the entry point in errors.
simmpi::Task<std::unique_ptr<NeighborAlltoallv>> init_impl(
    simmpi::Context& ctx, simmpi::DistGraph graph, AlltoallvArgs args,
    Binding binding, Options opts, const char* who) {
  // Before any plan build communicates or any channel is declared.
  if (opts.reliability.enabled) impl::validate_reliability(opts.reliability);
  const bool dedup = binding == Binding::locality_dedup;
  detail::validate_args(graph, args, dedup, who);
  if (binding == Binding::standard)
    co_return impl::make_standard(ctx, graph, std::move(args), opts);
  if (binding == Binding::bruck) {
    auto plan = co_await impl::build_bruck_plan(ctx, graph, args);
    co_return impl::bind_bruck(ctx, graph, std::move(args), std::move(plan),
                               opts);
  }
  detail::reject_duplicate_edges(graph, who);
  auto plan = co_await impl::build_locality_plan(ctx, graph, args, dedup,
                                                 opts.lpt_balance);
  co_return impl::bind_locality(ctx, graph, std::move(args), std::move(plan),
                                opts);
}

}  // namespace

simmpi::Task<std::unique_ptr<NeighborAlltoallv>> neighbor_alltoallv_init(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts) {
  return init_impl(ctx, graph, std::move(args), binding_of(method), opts,
                   "neighbor_alltoallv_init");
}

simmpi::Task<std::unique_ptr<NeighborAlltoallv>> alltoallv_init(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args,
    AlltoallMethod method, Options opts) {
  return init_impl(ctx, impl::dense_graph(comm), std::move(args),
                   binding_of(method), opts, "alltoallv_init");
}

}  // namespace mpix
