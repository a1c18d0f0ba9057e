/// \file test_coll_stress.cpp
/// \brief Additional collective-layer coverage: payload sweeps, struct
/// payloads, repeated/nested communicator splits, timing semantics.

#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/coll.hpp"
#include "simmpi/engine.hpp"

using namespace simmpi;

namespace {
Engine grid_engine(int nodes, int rpn) {
  return Engine(Machine({.num_nodes = nodes, .regions_per_node = 1,
                         .ranks_per_region = rpn}),
                CostParams::lassen());
}
}  // namespace

/// Payload sizes crossing the short/eager/rendezvous regime boundaries.
class BcastSizes : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Sizes, BcastSizes,
                         ::testing::Values(0, 1, 63, 64, 65, 1024, 8192,
                                           100000));

TEST_P(BcastSizes, PayloadIntactAcrossRegimes) {
  const int n = GetParam();
  Engine eng = grid_engine(3, 4);
  eng.run([&](Context& ctx) -> Task<> {
    std::vector<double> data;
    if (ctx.rank() == 5) {
      data.resize(n);
      for (int i = 0; i < n; ++i) data[i] = 1.5 * i - 7;
    }
    co_await coll::bcast(ctx, ctx.world(), data, 5);
    EXPECT_EQ(static_cast<int>(data.size()), n);
    for (int i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(data[i], 1.5 * i - 7);
  });
}

TEST_P(BcastSizes, LargerPayloadsTakeLonger) {
  const int n = GetParam();
  if (n == 0) GTEST_SKIP();
  auto elapsed = [](int count) {
    Engine eng = grid_engine(2, 1);
    eng.run([&](Context& ctx) -> Task<> {
      std::vector<double> data(ctx.rank() == 0 ? count : 0, 1.0);
      co_await coll::bcast(ctx, ctx.world(), data, 0);
    });
    return eng.max_clock();
  };
  EXPECT_LT(elapsed(n), elapsed(n + 100000));
}

TEST(CollStress, AllreduceStructPayload) {
  struct MinMax {
    double lo, hi;
  };
  Engine eng = grid_engine(4, 4);
  eng.run([&](Context& ctx) -> Task<> {
    MinMax v{static_cast<double>(ctx.rank()),
             static_cast<double>(ctx.rank())};
    MinMax r = co_await coll::allreduce<MinMax>(
        ctx, ctx.world(), v, [](MinMax a, MinMax b) {
          return MinMax{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
        });
    EXPECT_DOUBLE_EQ(r.lo, 0.0);
    EXPECT_DOUBLE_EQ(r.hi, 15.0);
  });
}

TEST(CollStress, RepeatedSplitsYieldConsistentSubcomms) {
  Engine eng = grid_engine(4, 4);
  eng.run([&](Context& ctx) -> Task<> {
    // Split twice by the same color: must land in identically-shaped comms.
    Comm a = co_await coll::comm_split(ctx, ctx.world(), ctx.rank() % 2,
                                       ctx.rank());
    Comm b = co_await coll::comm_split(ctx, ctx.world(), ctx.rank() % 2,
                                       ctx.rank());
    EXPECT_EQ(a.size(), b.size());
    EXPECT_EQ(a.rank(), b.rank());
    EXPECT_NE(a.id(), b.id());  // distinct contexts, isolated channels
    // Nested split: halves of halves.
    Comm c = co_await coll::comm_split(ctx, a, a.rank() % 2, a.rank());
    EXPECT_EQ(c.size(), a.size() / 2);
    long sum = co_await coll::allreduce<long>(
        ctx, c, 1L, [](long x, long y) { return x + y; });
    EXPECT_EQ(sum, c.size());
    co_return;
  });
}

TEST(CollStress, ManySequentialCollectivesKeepChannelsClean) {
  Engine eng = grid_engine(2, 4);
  eng.run([&](Context& ctx) -> Task<> {
    for (int round = 0; round < 25; ++round) {
      long v = co_await coll::allreduce<long>(
          ctx, ctx.world(), static_cast<long>(ctx.rank() + round),
          [](long a, long b) { return a + b; });
      long expected = 0;
      for (int r = 0; r < 8; ++r) expected += r + round;
      EXPECT_EQ(v, expected);
      auto all = co_await coll::allgather<int>(ctx, ctx.world(),
                                               round * 100 + ctx.rank());
      EXPECT_EQ(all[3], round * 100 + 3);
    }
    co_return;
  });
}

TEST(CollStress, AllgathervEmptyContributions) {
  // Some ranks contribute nothing at all.
  Engine eng = grid_engine(2, 4);
  eng.run([&](Context& ctx) -> Task<> {
    std::vector<int> mine;
    if (ctx.rank() % 3 == 0) mine = {ctx.rank(), -ctx.rank()};
    std::vector<int> counts;
    auto all = co_await coll::allgatherv<int>(ctx, ctx.world(),
                                              std::move(mine), &counts);
    long total = 0;
    for (int r = 0; r < 8; ++r) {
      EXPECT_EQ(counts[r], r % 3 == 0 ? 2 : 0);
      total += counts[r];
    }
    EXPECT_EQ(static_cast<long>(all.size()), total);
    EXPECT_EQ(all[0], 0);
    EXPECT_EQ(all[2], 3);  // rank 3's first value
  });
}

TEST(CollStress, CollectiveTimeGrowsWithCommunicatorSize) {
  auto barrier_time = [](int nodes) {
    Engine eng = grid_engine(nodes, 4);
    eng.run([&](Context& ctx) -> Task<> {
      co_await coll::barrier(ctx, ctx.world());
    });
    return eng.max_clock();
  };
  EXPECT_LT(barrier_time(2), barrier_time(16));
}

TEST(CollStress, AllreduceOnRegionCommIsCheaperThanWorld) {
  // The premise of hierarchical algorithms: collectives over a region cost
  // less than over the machine.
  Engine eng = grid_engine(8, 8);
  double region_t = 0, world_t = 0;
  eng.run([&](Context& ctx) -> Task<> {
    Comm region = co_await coll::split_by_region(ctx, ctx.world());
    co_await ctx.engine().sync_reset(ctx);
    (void)co_await coll::allreduce<double>(
        ctx, region, 1.0, [](double a, double b) { return a + b; });
    region_t = std::max(region_t, ctx.now());
    co_await ctx.engine().sync_reset(ctx);
    (void)co_await coll::allreduce<double>(
        ctx, ctx.world(), 1.0, [](double a, double b) { return a + b; });
    world_t = std::max(world_t, ctx.now());
    co_return;
  });
  EXPECT_LT(region_t, world_t);
}
