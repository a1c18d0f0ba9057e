/// \file init.cpp
/// \brief The unified persistent-collective entry point: one
/// `neighbor_alltoallv_init` dispatching over `Method`, mirroring how MPI
/// Advance exposes a single MPIX_Neighbor_alltoallv_init whose behavior is
/// selected at initialization time.

#include "mpix/impl.hpp"
#include "mpix/neighbor.hpp"
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

namespace {

/// The dispatch coroutine.  Only ever invoked with arguments already
/// normalized by the public wrappers below (see impl.hpp on why the
/// public entry points must not be coroutines themselves).
simmpi::Task<std::unique_ptr<NeighborAlltoallv>> init_impl(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts) {
  // Before any plan build communicates.
  if (opts.reliability.enabled) impl::validate_reliability(opts.reliability);
  if (method == Method::standard) {
    if (opts.plan)
      throw SimError(
          "neighbor_alltoallv_init: Method::standard takes no locality plan");
    co_return impl::make_standard(ctx, graph, std::move(args), opts);
  }
  std::shared_ptr<const LocalityPlan> plan;
  if (opts.plan) {
    plan = impl::plan_as<LocalityPlan>(*opts.plan, "neighbor_alltoallv_init");
    if (plan->dedup != needs_idx(method))
      throw SimError(
          "neighbor_alltoallv_init: plan's dedup mode does not match the "
          "requested Method");
  } else {
    plan = co_await impl::build_locality_plan(ctx, graph, args, method, opts);
  }
  co_return impl::bind_locality(ctx, graph, std::move(args), std::move(plan),
                                opts);
}

}  // namespace

simmpi::Task<std::unique_ptr<NeighborAlltoallv>> neighbor_alltoallv_init(
    simmpi::Context& ctx, const simmpi::DistGraph& graph, AlltoallvArgs args,
    Method method, Options opts) {
  return init_impl(ctx, graph, std::move(args), method, std::move(opts));
}

}  // namespace mpix
