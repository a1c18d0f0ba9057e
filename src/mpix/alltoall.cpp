/// \file alltoall.cpp
/// \brief Dense persistent alltoall{,v}: method dispatch and the
/// standard / node_aggregated implementations.
///
/// The dense pattern is the complete adjacency, so `standard` and
/// `node_aggregated` are the existing neighbor building blocks applied to
/// an iota graph: `standard` wraps `impl::make_standard` (one message per
/// rank pair), `node_aggregated` runs `impl::build_locality_plan` /
/// `impl::bind_locality` (gather to per-region leaders, one inter-region
/// message per directed region pair, scatter on arrival) — exactly the
/// two-stage PPN-aware aggregation of the dense reference implementation.
/// Only `bruck` needs a new engine (bruck.cpp).

#include "mpix/alltoall.hpp"

#include <numeric>
#include <utility>

#include "mpix/impl.hpp"
#include "mpix/reliable.hpp"

namespace mpix {

using simmpi::Context;
using simmpi::SimError;
using simmpi::Task;

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

/// The dispatch coroutine.  Only invoked through the plain public
/// wrappers below (see impl.hpp on why).
Task<std::unique_ptr<NeighborAlltoallv>> dense_init_impl(
    Context& ctx, simmpi::Comm comm, AlltoallvArgs args, AlltoallMethod method,
    Options opts) {
  // Before any plan build communicates.
  if (opts.reliability.enabled) impl::validate_reliability(opts.reliability);
  const simmpi::DistGraph graph = impl::dense_graph(comm);
  switch (method) {
    case AlltoallMethod::standard: {
      if (opts.plan)
        throw SimError("alltoallv_init: AlltoallMethod::standard takes no plan");
      co_return impl::make_standard(ctx, graph, std::move(args), opts);
    }
    case AlltoallMethod::node_aggregated: {
      std::shared_ptr<const LocalityPlan> plan;
      if (opts.plan) {
        plan = impl::plan_as<LocalityPlan>(*opts.plan,
                                           "alltoallv_init: node_aggregated");
        if (plan->dedup)
          throw SimError(
              "alltoallv_init: node_aggregated does not take a dedup plan");
      } else {
        plan = co_await impl::build_locality_plan(ctx, graph, args,
                                                  Method::locality, opts);
      }
      co_return impl::bind_locality(ctx, graph, std::move(args),
                                    std::move(plan), opts);
    }
    case AlltoallMethod::bruck: {
      std::shared_ptr<const BruckPlan> plan;
      if (opts.plan) {
        plan = impl::plan_as<BruckPlan>(*opts.plan, "alltoallv_init: bruck");
      } else {
        plan = co_await impl::build_bruck_plan(ctx, comm, args);
      }
      co_return impl::bind_bruck(ctx, std::move(comm), std::move(args),
                                 std::move(plan), opts);
    }
  }
  throw SimError("alltoallv_init: invalid AlltoallMethod");
}

}  // namespace

simmpi::Task<std::unique_ptr<NeighborAlltoallv>> alltoallv_init(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args,
    AlltoallMethod method, Options opts) {
  return dense_init_impl(ctx, std::move(comm), std::move(args), method,
                         std::move(opts));
}

}  // namespace mpix
