/// \file test_neighbor_typed.cpp
/// \brief Datatype-generic payloads and plan reuse: the collectives must
/// move any trivially copyable element type (int halos, struct payloads)
/// byte-identically to a scalar reference, and re-initializing on a cached
/// LocalityPlan must perform zero setup communication, also under another
/// link taper, while a plan of another pattern, method or machine shape is
/// rejected.

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "pattern_util.hpp"
#include "simmpi/dist_graph.hpp"

using namespace simmpi;
using namespace mpix;
using pattern::GlobalPattern;
using pattern::RankArgs;

namespace {

/// A non-power-of-two, non-double element (12 bytes).
struct Particle {
  float x = 0, y = 0;
  int tag = 0;
  bool operator==(const Particle&) const = default;
};
static_assert(sizeof(Particle) == 12);

int int_value_of(gidx gid, int iter) {
  return static_cast<int>(gid) * 13 + 1000 * iter + 7;
}

Particle particle_value_of(gidx gid, int iter) {
  return {0.5f * static_cast<float>(gid), static_cast<float>(iter),
          static_cast<int>(gid) + iter};
}

/// Exchange `T` payloads derived from the pattern's gids through `method`
/// and compare byte-for-byte against the scalar (host-computed) reference.
template <class T, class ValueOf>
void verify_typed(int nodes, int rpn, const GlobalPattern& pat, Method method,
                  ValueOf value_of) {
  Engine eng(Machine({.num_nodes = nodes, .regions_per_node = 1,
                      .ranks_per_region = rpn}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = pattern::rank_args(pat, r);  // reuse the pattern metadata
    std::vector<T> sendbuf(a.send_idx.size());
    std::vector<T> recvbuf(a.recv_idx.size());
    std::vector<T> expected(a.recv_idx.size());
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    // Build the typed arguments in a helper returning a prvalue — never as
    // a braced temporary inline in the co_await'd call, which g++ 12
    // miscompiles (see the neighbor.hpp warning).
    auto targs = [&] {
      return AlltoallvArgsT<T>{.sendbuf = sendbuf,
                               .sendcounts = a.sendcounts,
                               .sdispls = a.sdispls,
                               .recvbuf = recvbuf,
                               .recvcounts = a.recvcounts,
                               .rdispls = a.rdispls,
                               .send_idx = a.send_idx,
                               .recv_idx = a.recv_idx};
    };
    auto proto = co_await neighbor_alltoallv_init(ctx, g, targs(), method);
    for (int it = 0; it < 3; ++it) {
      for (std::size_t k = 0; k < sendbuf.size(); ++k)
        sendbuf[k] = value_of(a.send_idx[k], it);
      for (std::size_t k = 0; k < expected.size(); ++k)
        expected[k] = value_of(a.recv_idx[k], it);
      std::fill(recvbuf.begin(), recvbuf.end(), value_of(-12345, 99));
      co_await proto->start(ctx);
      co_await proto->wait(ctx);
      EXPECT_TRUE(recvbuf.empty() ||
                  std::memcmp(recvbuf.data(), expected.data(),
                              recvbuf.size() * sizeof(T)) == 0)
          << to_string(method) << " rank " << r << " iter " << it;
    }
    co_return;
  });
}

}  // namespace

TEST(TypedPayload, IntHaloThroughEveryMethod) {
  for (unsigned seed : {1u, 4u}) {
    GlobalPattern pat = pattern::random_pattern(16, seed);
    for (Method m : kAllMethods)
      verify_typed<int>(4, 4, pat, m, int_value_of);
  }
}

TEST(TypedPayload, TwelveByteStructThroughEveryMethod) {
  GlobalPattern pat = pattern::random_pattern(12, 5);
  for (Method m : kAllMethods)
    verify_typed<Particle>(3, 4, pat, m, particle_value_of);
}

TEST(TypedPayload, GidxPayloadMatchesIndices) {
  // Send each value's own index: what arrives must equal recv_idx itself.
  GlobalPattern pat = pattern::random_pattern(8, 9);
  verify_typed<gidx>(2, 4, pat, Method::locality_dedup,
                     [](gidx g, int) { return g; });
}

TEST(TypedPayload, MixedElementSizesShareOnePlan) {
  // The plan is element-size-free: build it once (via a double exchange),
  // then bind an int exchange on the same pattern to the same plan.
  GlobalPattern pat = pattern::random_pattern(8, 6);
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = pattern::rank_args(pat, r);
    std::vector<int> isend(a.send_idx.size()), irecv(a.recv_idx.size());
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    auto dbl = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                Method::locality_dedup);
    auto iargs = [&] {
      return AlltoallvArgsT<int>{.sendbuf = isend,
                                 .sendcounts = a.sendcounts,
                                 .sdispls = a.sdispls,
                                 .recvbuf = irecv,
                                 .recvcounts = a.recvcounts,
                                 .rdispls = a.rdispls,
                                 .send_idx = a.send_idx,
                                 .recv_idx = a.recv_idx};
    };
    const auto shared = dbl->plan();
    auto ints = co_await neighbor_alltoallv_init(
        ctx, g, iargs(), Method::locality_dedup, {.plan = shared.get()});
    EXPECT_EQ(ints->plan(), dbl->plan());
    a.fill(1);
    for (std::size_t k = 0; k < isend.size(); ++k)
      isend[k] = int_value_of(a.send_idx[k], 1);
    co_await dbl->start(ctx);
    co_await ints->start(ctx);
    co_await ints->wait(ctx);
    co_await dbl->wait(ctx);
    for (std::size_t k = 0; k < irecv.size(); ++k) {
      EXPECT_DOUBLE_EQ(a.recvbuf[k], a.expected[k]) << "rank " << r;
      EXPECT_EQ(irecv[k], int_value_of(a.recv_idx[k], 1)) << "rank " << r;
    }
    co_return;
  });
}

TEST(PlanReuse, RebindPerformsZeroSetupCommunication) {
  GlobalPattern pat = pattern::random_pattern(16, 21);
  Engine eng(Machine({.num_nodes = 4, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  std::vector<std::uint64_t> cold(pat.nranks, 0), warm(pat.nranks, 0);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = pattern::rank_args(pat, r);
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);

    co_await ctx.engine().sync_reset(ctx);
    auto p1 = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                               Method::locality_dedup);
    cold[r] = ctx.engine().stats(r).total_msgs();

    co_await ctx.engine().sync_reset(ctx);
    const auto shared = p1->plan();
    auto p2 = co_await neighbor_alltoallv_init(
        ctx, g, a.view(), Method::locality_dedup, {.plan = shared.get()});
    warm[r] = ctx.engine().stats(r).total_msgs();
    EXPECT_EQ(p2->plan(), p1->plan());

    // The rebound collective still delivers correctly.
    a.fill(2);
    std::fill(a.recvbuf.begin(), a.recvbuf.end(), -1.0);
    co_await p2->start(ctx);
    co_await p2->wait(ctx);
    for (std::size_t k = 0; k < a.recvbuf.size(); ++k)
      EXPECT_DOUBLE_EQ(a.recvbuf[k], a.expected[k]) << "rank " << r;
    co_return;
  });
  std::uint64_t cold_total = 0, warm_total = 0;
  for (int r = 0; r < pat.nranks; ++r) {
    cold_total += cold[r];
    warm_total += warm[r];
  }
  EXPECT_GT(cold_total, 0u);   // plan construction communicates...
  EXPECT_EQ(warm_total, 0u);   // ...rebinding a cached plan never does
}

TEST(PlanReuse, MismatchedPatternRejected) {
  GlobalPattern pat = pattern::random_pattern(8, 3);
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        RankArgs a = pattern::rank_args(pat, ctx.rank());
        DistGraph g = co_await dist_graph_create_adjacent(
            ctx, ctx.world(), a.sources, a.destinations,
            GraphAlgo::handshake);
        auto p1 =
            co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                             Method::locality);
        auto args = a.view();
        if (!args.sendcounts.empty()) --args.sendcounts[0];  // shrink segment
        const auto shared = p1->plan();
        co_await neighbor_alltoallv_init(ctx, g, args, Method::locality,
                                         {.plan = shared.get()});
      }),
      SimError);
}

TEST(PlanReuse, DifferentMachineShapeRejected) {
  // Same ranks, same adjacency, different region layout: the plan's peer
  // resolution is stale, and binding must say so instead of misrouting.
  GlobalPattern pat = pattern::random_pattern(16, 17);
  std::vector<std::shared_ptr<const PlanBase>> plans(pat.nranks);
  {
    Engine eng(Machine({.num_nodes = 4, .regions_per_node = 1,
                        .ranks_per_region = 4}),
               CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      RankArgs a = pattern::rank_args(pat, ctx.rank());
      DistGraph g = co_await dist_graph_create_adjacent(
          ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
      auto p =
          co_await neighbor_alltoallv_init(ctx, g, a.view(), Method::locality);
      plans[ctx.rank()] = p->plan();
      co_return;
    });
  }
  Engine eng2(Machine({.num_nodes = 2, .regions_per_node = 1,
                       .ranks_per_region = 8}),
              CostParams::lassen());
  EXPECT_THROW(
      eng2.run([&](Context& ctx) -> Task<> {
        RankArgs a = pattern::rank_args(pat, ctx.rank());
        DistGraph g = co_await dist_graph_create_adjacent(
            ctx, ctx.world(), a.sources, a.destinations,
            GraphAlgo::handshake);
        const auto shared = plans[ctx.rank()];
        co_await neighbor_alltoallv_init(ctx, g, a.view(), Method::locality,
                                         {.plan = shared.get()});
      }),
      SimError);
}

TEST(PlanReuse, MethodMismatchRejected) {
  GlobalPattern pat = pattern::random_pattern(8, 3);
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        RankArgs a = pattern::rank_args(pat, ctx.rank());
        DistGraph g = co_await dist_graph_create_adjacent(
            ctx, ctx.world(), a.sources, a.destinations,
            GraphAlgo::handshake);
        auto p1 =
            co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                             Method::locality);
        // A locality plan cannot serve the dedup method.
        const auto shared = p1->plan();
        co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                         Method::locality_dedup,
                                         {.plan = shared.get()});
      }),
      SimError);
}

TEST(PlanReuse, TapersRebindButRadixesReject) {
  // Tapers scale link costs, never a plan: a plan built under one taper
  // binds in an engine with another.  Radixes shape the tree whose link
  // crossings the plan counts, so another radix rejects it.
  GlobalPattern pat = pattern::random_pattern(16, 21);
  auto tree = [](int leaf_radix, int root_radix, double leaf_taper) {
    return Machine({.num_nodes = 4,
                    .regions_per_node = 1,
                    .ranks_per_region = 4,
                    .switch_levels = {{.radix = leaf_radix,
                                       .taper = leaf_taper},
                                      {.radix = root_radix, .taper = 1.0}}});
  };
  std::vector<std::shared_ptr<const PlanBase>> plans(pat.nranks);
  Engine built(tree(2, 2, 1.0), CostParams::lassen());
  built.run([&](Context& ctx) -> Task<> {
    RankArgs a = pattern::rank_args(pat, ctx.rank());
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    auto p = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                              Method::locality);
    plans[ctx.rank()] = p->plan();
  });

  // Rebinds every rank's plan in `eng`, checking delivery; returns each
  // rank's messages sent by the bind.
  auto rebind = [&](Engine& eng) {
    std::vector<std::uint64_t> setup(pat.nranks, 0);
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      RankArgs a = pattern::rank_args(pat, r);
      DistGraph g = co_await dist_graph_create_adjacent(
          ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
      co_await ctx.engine().sync_reset(ctx);
      const auto shared = plans[r];
      auto p = co_await neighbor_alltoallv_init(
          ctx, g, a.view(), Method::locality, {.plan = shared.get()});
      setup[r] = ctx.engine().stats(r).total_msgs();
      EXPECT_EQ(p->plan(), plans[r]);
      a.fill(3);
      co_await p->start(ctx);
      co_await p->wait(ctx);
      for (std::size_t k = 0; k < a.recvbuf.size(); ++k)
        EXPECT_DOUBLE_EQ(a.recvbuf[k], a.expected[k]) << "rank " << r;
    });
    return setup;
  };
  Engine tapered(tree(2, 2, 4.0), CostParams::lassen());
  EXPECT_EQ(rebind(tapered), std::vector<std::uint64_t>(pat.nranks, 0));
  Engine reshaped(tree(4, 1, 1.0), CostParams::lassen());
  try {
    rebind(reshaped);
    FAIL() << "a plan bound under another switch radix";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("machine shape"), std::string::npos)
        << e.what();
  }
}

TEST(PlanReuse, StandardHasNoPlan) {
  // The standard method builds no plan: it hands none out and takes none.
  GlobalPattern pat = pattern::random_pattern(8, 3);
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  try {
    eng.run([&](Context& ctx) -> Task<> {
      RankArgs a = pattern::rank_args(pat, ctx.rank());
      DistGraph g = co_await dist_graph_create_adjacent(
          ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
      auto standard = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                       Method::standard);
      EXPECT_EQ(standard->plan(), nullptr);
      auto locality = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                       Method::locality);
      const auto shared = locality->plan();
      co_await neighbor_alltoallv_init(ctx, g, a.view(), Method::standard,
                                       {.plan = shared.get()});
    });
    FAIL() << "the standard method accepted a plan";
  } catch (const SimError& e) {
    EXPECT_NE(std::string(e.what()).find("standard method takes no plan"),
              std::string::npos)
        << e.what();
  }
}
