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
#include <string>
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

/// Renames an inner collective so stats and measurement report the dense
/// method name instead of the neighbor building block it reuses.
class Renamed final : public NeighborAlltoallv {
 public:
  Renamed(std::unique_ptr<NeighborAlltoallv> inner, const char* name)
      : inner_(std::move(inner)), name_(name) {}

  Task<> start(Context& ctx) override { return inner_->start(ctx); }
  Task<> wait(Context& ctx) override { return inner_->wait(ctx); }
  NeighborStats stats() const override { return inner_->stats(); }
  const char* name() const override { return name_; }
  std::shared_ptr<const LocalityPlan> plan() const override {
    return inner_->plan();
  }
  std::shared_ptr<const PlanBase> plan_base() const override {
    return inner_->plan_base();
  }

 private:
  std::unique_ptr<NeighborAlltoallv> inner_;
  const char* name_;
};

std::shared_ptr<const LocalityPlan> require_locality_plan(const PlanBase* p) {
  auto* lp = dynamic_cast<const LocalityPlan*>(p);
  if (!lp)
    throw SimError(
        "alltoallv_init: Options::plan is not a LocalityPlan (wrong plan "
        "kind for AlltoallMethod::node_aggregated)");
  if (lp->dedup)
    throw SimError(
        "alltoallv_init: node_aggregated does not take a dedup plan");
  return lp->shared_from_this();
}

std::shared_ptr<const BruckPlan> require_bruck_plan(const PlanBase* p) {
  auto* bp = dynamic_cast<const BruckPlan*>(p);
  if (!bp)
    throw SimError(
        "alltoallv_init: Options::plan is not a BruckPlan (wrong plan kind "
        "for AlltoallMethod::bruck)");
  return bp->shared_from_this();
}

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
        plan = require_locality_plan(opts.plan);
      } else {
        plan = co_await impl::build_locality_plan(ctx, graph, args,
                                                  Method::locality, opts);
      }
      co_return std::make_unique<Renamed>(
          impl::bind_locality(ctx, graph, std::move(args), std::move(plan),
                              opts),
          "node_aggregated");
    }
    case AlltoallMethod::bruck: {
      std::shared_ptr<const BruckPlan> plan;
      if (opts.plan) {
        plan = require_bruck_plan(opts.plan);
      } else {
        plan = co_await impl::build_bruck_plan(ctx, comm, args);
      }
      co_return impl::bind_bruck(ctx, std::move(comm), std::move(args),
                                 std::move(plan), opts);
    }
  }
  throw SimError("alltoallv_init: invalid AlltoallMethod");
}

Task<std::shared_ptr<const PlanBase>> dense_plan_impl(Context& ctx,
                                                      simmpi::Comm comm,
                                                      AlltoallvArgs args,
                                                      AlltoallMethod method,
                                                      Options opts) {
  if (method == AlltoallMethod::node_aggregated) {
    const simmpi::DistGraph graph = impl::dense_graph(comm);
    co_return co_await impl::build_locality_plan(ctx, graph, std::move(args),
                                                 Method::locality,
                                                 std::move(opts));
  }
  if (method == AlltoallMethod::bruck)
    co_return co_await impl::build_bruck_plan(ctx, std::move(comm),
                                              std::move(args));
  throw SimError("make_alltoall_plan: AlltoallMethod::standard has no plan");
}

}  // namespace

simmpi::Task<std::unique_ptr<NeighborAlltoallv>> alltoallv_init(
    simmpi::Context& ctx, simmpi::Comm comm, AlltoallvArgs args,
    AlltoallMethod method, Options opts) {
  return dense_init_impl(ctx, std::move(comm), std::move(args), method,
                         std::move(opts));
}

simmpi::Task<std::unique_ptr<NeighborAlltoallv>> alltoall_init(
    simmpi::Context& ctx, simmpi::Comm comm,
    std::span<const std::byte> sendbuf, std::span<std::byte> recvbuf,
    int count, std::size_t element_size, AlltoallMethod method, Options opts) {
  const int p = comm.size();
  if (count < 0) throw SimError("alltoall_init: negative count");
  if (element_size == 0) throw SimError("alltoall_init: element_size is zero");
  const std::size_t need = static_cast<std::size_t>(p) *
                           static_cast<std::size_t>(count) * element_size;
  if (sendbuf.size() != need)
    throw SimError("alltoall_init: sendbuf holds " +
                   std::to_string(sendbuf.size()) + " bytes, expected " +
                   std::to_string(need) + " (nranks * count * element_size)");
  if (recvbuf.size() != need)
    throw SimError("alltoall_init: recvbuf holds " +
                   std::to_string(recvbuf.size()) + " bytes, expected " +
                   std::to_string(need) + " (nranks * count * element_size)");

  AlltoallvArgs args;
  args.sendbuf = sendbuf;
  args.recvbuf = recvbuf;
  args.element_size = element_size;
  args.sendcounts.assign(static_cast<std::size_t>(p), count);
  args.sdispls.resize(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) args.sdispls[i] = i * count;
  args.recvcounts = args.sendcounts;
  args.rdispls = args.sdispls;
  return dense_init_impl(ctx, std::move(comm), std::move(args), method,
                         std::move(opts));
}

simmpi::Task<std::shared_ptr<const PlanBase>> make_alltoall_plan(
    simmpi::Context& ctx, simmpi::Comm comm, const AlltoallvArgs& args,
    AlltoallMethod method, Options opts) {
  return dense_plan_impl(ctx, std::move(comm), args, method, std::move(opts));
}

}  // namespace mpix
