/// \file test_alltoall.cpp
/// \brief End-to-end verification of the dense persistent alltoall{,v}
/// collectives (mpix/alltoall.hpp): byte-exact delivery of all three
/// methods against a host-side reference on uniform and ragged patterns,
/// bit-identical results across engine widths, exact network message
/// counts, plan feedback/caching, and argument validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <utility>

#include "harness/exchange.hpp"
#include "mpix/alltoall.hpp"
#include "pattern_util.hpp"
#include "simmpi/coll.hpp"

using namespace simmpi;
using namespace mpix;

namespace {

/// A dense pattern, globally specified: counts[src][dst] values (of
/// `element_size` bytes each) from every src to every dst.
struct DenseSpec {
  int nranks = 0;
  std::size_t element_size = 8;
  std::vector<std::vector<int>> counts;
};

DenseSpec uniform_spec(int nranks, int count, std::size_t es) {
  DenseSpec s{nranks, es, {}};
  s.counts.assign(nranks, std::vector<int>(nranks, count));
  return s;
}

/// Ragged pattern: ~30% zero segments, the rest 1-4 values.
DenseSpec ragged_spec(int nranks, unsigned seed, std::size_t es) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pct(0, 9);
  std::uniform_int_distribution<int> cnt(1, 4);
  DenseSpec s{nranks, es, {}};
  s.counts.assign(nranks, std::vector<int>(nranks, 0));
  for (int src = 0; src < nranks; ++src)
    for (int dst = 0; dst < nranks; ++dst)
      if (pct(rng) >= 3) s.counts[src][dst] = cnt(rng);
  return s;
}

/// Deterministic payload byte: byte `b` of value `k` of segment src->dst
/// at iteration `iter`.
std::byte pbyte(int src, int dst, long k, std::size_t b, int iter) {
  return static_cast<std::byte>((src * 163 + dst * 41 + k * 11 +
                                 static_cast<long>(b) * 3 + iter * 29) &
                                0xff);
}

/// Rank-local argument storage for one spec.
struct RankDense {
  std::vector<int> sendcounts, sdispls, recvcounts, rdispls;
  std::vector<std::byte> sendbuf, recvbuf, expected;

  RankDense(const DenseSpec& s, int r) {
    const int p = s.nranks;
    sendcounts.resize(p);
    sdispls.resize(p);
    recvcounts.resize(p);
    rdispls.resize(p);
    int sacc = 0, racc = 0;
    for (int q = 0; q < p; ++q) {
      sdispls[q] = sacc;
      sendcounts[q] = s.counts[r][q];
      sacc += sendcounts[q];
      rdispls[q] = racc;
      recvcounts[q] = s.counts[q][r];
      racc += recvcounts[q];
    }
    sendbuf.resize(static_cast<std::size_t>(sacc) * s.element_size);
    recvbuf.resize(static_cast<std::size_t>(racc) * s.element_size);
    expected.resize(recvbuf.size());
  }

  /// Refresh sendbuf and the expected recvbuf for an iteration number.
  void fill(const DenseSpec& s, int r, int iter) {
    const std::size_t es = s.element_size;
    for (int q = 0; q < s.nranks; ++q) {
      for (int k = 0; k < sendcounts[q]; ++k)
        for (std::size_t b = 0; b < es; ++b)
          sendbuf[(static_cast<std::size_t>(sdispls[q]) + k) * es + b] =
              pbyte(r, q, k, b, iter);
      for (int k = 0; k < recvcounts[q]; ++k)
        for (std::size_t b = 0; b < es; ++b)
          expected[(static_cast<std::size_t>(rdispls[q]) + k) * es + b] =
              pbyte(q, r, k, b, iter);
    }
  }

  AlltoallvArgs args(const DenseSpec& s) {
    AlltoallvArgs a;
    a.sendbuf = sendbuf;
    a.sendcounts = sendcounts;
    a.sdispls = sdispls;
    a.recvbuf = recvbuf;
    a.recvcounts = recvcounts;
    a.rdispls = rdispls;
    a.element_size = s.element_size;
    return a;
  }
};

struct DenseRun {
  std::vector<std::vector<std::byte>> recv;  ///< last-iteration recvbuf
  std::vector<NeighborStats> stats;
};

Machine machine_of(int nodes, int rpn) {
  return Machine(
      {.num_nodes = nodes, .regions_per_node = 1, .ranks_per_region = rpn});
}

/// Run one method over the full machine at the given engine width; verify
/// delivery against the host reference every iteration.
DenseRun run_dense(const DenseSpec& s, int nodes, int rpn,
                   AlltoallMethod method, int width, int iters = 2) {
  Engine eng(machine_of(nodes, rpn), CostParams::lassen(),
             Engine::Options{.threads = width});
  DenseRun out;
  out.recv.resize(s.nranks);
  out.stats.resize(s.nranks);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankDense a(s, r);
    AlltoallvArgs args = a.args(s);
    auto coll = co_await alltoallv_init(ctx, ctx.world(), args, method);
    out.stats[r] = coll->stats();
    pattern::verify_stats(out.stats[r]);
    for (int it = 0; it < iters; ++it) {
      a.fill(s, r, it);
      std::fill(a.recvbuf.begin(), a.recvbuf.end(), std::byte{0xee});
      co_await coll->start(ctx);
      co_await coll->wait(ctx);
      EXPECT_TRUE(std::equal(a.recvbuf.begin(), a.recvbuf.end(),
                             a.expected.begin()))
          << coll->name() << " rank " << r << " iter " << it;
    }
    out.recv[r] = a.recvbuf;
    co_return;
  });
  return out;
}

using pattern::sum_global_msgs;
using pattern::sum_global_values;

}  // namespace

// ---------------------------------------------------------------------------
// Randomized property sweep: machines x seeds, int-sized and 12-byte
// elements.  Every method must deliver the reference bytes, widths 1 and 4
// must agree bit-for-bit, and the aggregated methods must not exceed the
// standard method's per-value network traffic invariants.
// ---------------------------------------------------------------------------
class DenseProperty
    : public ::testing::TestWithParam<
          std::tuple<std::pair<int, int>, unsigned>> {};

INSTANTIATE_TEST_SUITE_P(
    MachinesAndSeeds, DenseProperty,
    ::testing::Combine(::testing::Values(std::pair{1, 4}, std::pair{2, 4},
                                         std::pair{4, 2}, std::pair{3, 3}),
                       ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param).first) + "r" +
             std::to_string(std::get<0>(info.param).second) + "s" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(DenseProperty, AllMethodsDeliverIdenticalPayloadsAtAllWidths) {
  const auto [shape, seed] = GetParam();
  const auto [nodes, rpn] = shape;
  const int nranks = nodes * rpn;
  for (std::size_t es : {std::size_t{4}, std::size_t{12}}) {
    DenseSpec s = ragged_spec(nranks, seed, es);
    DenseRun std1 = run_dense(s, nodes, rpn, AlltoallMethod::standard, 1);
    for (AlltoallMethod m :
         {AlltoallMethod::node_aggregated, AlltoallMethod::bruck}) {
      DenseRun w1 = run_dense(s, nodes, rpn, m, 1);
      DenseRun w4 = run_dense(s, nodes, rpn, m, 4);
      for (int r = 0; r < nranks; ++r) {
        EXPECT_EQ(w1.recv[r], std1.recv[r])
            << to_string(m) << " vs standard, rank " << r << " es " << es;
        EXPECT_EQ(w1.recv[r], w4.recv[r])
            << to_string(m) << " width 1 vs 4, rank " << r << " es " << es;
      }
      // Aggregation never moves more values across region boundaries than
      // exist (forwarding through intermediate regions may duplicate for
      // bruck, but node_aggregated must match standard exactly).
      if (m == AlltoallMethod::node_aggregated) {
        EXPECT_EQ(sum_global_values(w1.stats),
                  sum_global_values(std1.stats));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact network message counts on uniform patterns (the crossover
// acceptance numbers): standard P^2 - sum |region|^2, node_aggregated
// R(R-1), bruck R * ceil(log2 R).
// ---------------------------------------------------------------------------
TEST(DenseCounts, TwoRegionsOfFour) {
  DenseSpec s = uniform_spec(8, 3, 8);
  EXPECT_EQ(sum_global_msgs(
                run_dense(s, 2, 4, AlltoallMethod::standard, 1).stats),
            32);  // 64 - 2*16
  EXPECT_EQ(sum_global_msgs(
                run_dense(s, 2, 4, AlltoallMethod::node_aggregated, 1).stats),
            2);  // R(R-1) = 2*1
  EXPECT_EQ(
      sum_global_msgs(run_dense(s, 2, 4, AlltoallMethod::bruck, 1).stats),
      2);  // R*ceil(log2 R) = 2*1
}

TEST(DenseCounts, FourRegionsOfTwo) {
  DenseSpec s = uniform_spec(8, 2, 8);
  EXPECT_EQ(sum_global_msgs(
                run_dense(s, 4, 2, AlltoallMethod::standard, 1).stats),
            48);  // 64 - 4*4
  EXPECT_EQ(sum_global_msgs(
                run_dense(s, 4, 2, AlltoallMethod::node_aggregated, 1).stats),
            12);  // R(R-1) = 4*3
  EXPECT_EQ(
      sum_global_msgs(run_dense(s, 4, 2, AlltoallMethod::bruck, 1).stats),
      8);  // R*ceil(log2 R) = 4*2
}

// ---------------------------------------------------------------------------
// Degenerate shapes.
// ---------------------------------------------------------------------------
TEST(DenseShapes, SelfOnlyTrafficCrossesNoRegionBoundary) {
  DenseSpec s{6, 8, {}};
  s.counts.assign(6, std::vector<int>(6, 0));
  for (int r = 0; r < 6; ++r) s.counts[r][r] = 2;
  for (AlltoallMethod m : kAllAlltoallMethods) {
    DenseRun run = run_dense(s, 2, 3, m, 1);
    EXPECT_EQ(sum_global_values(run.stats), 0) << to_string(m);
  }
}

TEST(DenseShapes, AllZeroCountsWork) {
  DenseSpec s{8, 8, {}};
  s.counts.assign(8, std::vector<int>(8, 0));
  for (AlltoallMethod m : kAllAlltoallMethods) {
    DenseRun run = run_dense(s, 2, 4, m, 1);
    EXPECT_EQ(sum_global_values(run.stats), 0) << to_string(m);
  }
}

TEST(DenseShapes, OneRankRegionsDegenerateGracefully) {
  // Region size 1: every rank is its own leader; the aggregated methods
  // must still deliver (bruck degenerates to pure log-P Bruck).
  DenseSpec s = ragged_spec(6, 5, 8);
  DenseRun std1 = run_dense(s, 6, 1, AlltoallMethod::standard, 1);
  for (AlltoallMethod m :
       {AlltoallMethod::node_aggregated, AlltoallMethod::bruck}) {
    DenseRun run = run_dense(s, 6, 1, m, 1);
    for (int r = 0; r < 6; ++r)
      EXPECT_EQ(run.recv[r], std1.recv[r]) << to_string(m) << " rank " << r;
  }
}

TEST(DenseShapes, SubcommunicatorWithUnevenRegions) {
  // 8-rank machine (2 regions of 4); the collective runs on a 7-rank
  // subcommunicator spanning region sizes {4, 3} — PPN does not divide
  // the communicator size.
  const DenseSpec s = ragged_spec(7, 9, 8);
  for (AlltoallMethod m : kAllAlltoallMethods) {
    for (int width : {1, 4}) {
      Engine eng(machine_of(2, 4), CostParams::lassen(),
                 Engine::Options{.threads = width});
      eng.run([&](Context& ctx) -> Task<> {
        const int wr = ctx.rank();
        Comm sub = co_await coll::comm_split(ctx, ctx.world(),
                                             wr < 7 ? 0 : 1, wr);
        if (wr >= 7) co_return;
        RankDense a(s, sub.rank());
        AlltoallvArgs args = a.args(s);
        auto coll = co_await alltoallv_init(ctx, sub, args, m);
        pattern::verify_stats(coll->stats());
        for (int it = 0; it < 2; ++it) {
          a.fill(s, sub.rank(), it);
          std::fill(a.recvbuf.begin(), a.recvbuf.end(), std::byte{0xee});
          co_await coll->start(ctx);
          co_await coll->wait(ctx);
          EXPECT_EQ(std::memcmp(a.recvbuf.data(), a.expected.data(),
                                a.recvbuf.size()),
                    0)
              << to_string(m) << " rank " << wr << " iter " << it;
        }
        co_return;
      });
    }
  }
}

// ---------------------------------------------------------------------------
// The uniform wrapper and the v-interface must agree.
// ---------------------------------------------------------------------------
TEST(DenseUniform, AlltoallMatchesAlltoallv) {
  const int p = 8, count = 2;
  const std::size_t es = 8;
  const DenseSpec s = uniform_spec(p, count, es);
  DenseRun ref = run_dense(s, 2, 4, AlltoallMethod::bruck, 1);

  Engine eng(machine_of(2, 4), CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankDense a(s, r);
    auto coll = co_await alltoall_init(
        ctx, ctx.world(), std::span<const std::byte>(a.sendbuf),
        std::span<std::byte>(a.recvbuf), count, es, AlltoallMethod::bruck);
    a.fill(s, r, /*iter=*/1);  // run_dense's last iteration
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    EXPECT_EQ(a.recvbuf, ref.recv[r]) << "rank " << r;
    co_return;
  });
}

TEST(DenseUniform, WrapperValidatesBufferSizes) {
  Engine eng(machine_of(1, 4), CostParams::lassen());
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        std::vector<std::byte> send(4 * 2 * 8), recv(4 * 2 * 8 - 8);
        co_await alltoall_init(ctx, ctx.world(),
                               std::span<const std::byte>(send),
                               std::span<std::byte>(recv), 2, 8,
                               AlltoallMethod::standard);
      }),
      SimError);
}

// ---------------------------------------------------------------------------
// Plan feedback and the shared PlanCache.
// ---------------------------------------------------------------------------
TEST(DensePlan, PlanFeedbackReproducesDelivery) {
  const DenseSpec s = ragged_spec(8, 3, 8);
  for (AlltoallMethod m :
       {AlltoallMethod::node_aggregated, AlltoallMethod::bruck}) {
    std::vector<std::shared_ptr<const PlanBase>> plans(8);
    std::vector<NeighborStats> cold(8);
    std::vector<std::vector<std::byte>> cold_recv(8);
    {
      Engine eng(machine_of(2, 4), CostParams::lassen());
      eng.run([&](Context& ctx) -> Task<> {
        const int r = ctx.rank();
        RankDense a(s, r);
        AlltoallvArgs args = a.args(s);
        auto coll = co_await alltoallv_init(ctx, ctx.world(), args, m);
        cold[r] = coll->stats();
        plans[r] = coll->plan_base();
        a.fill(s, r, 0);
        co_await coll->start(ctx);
        co_await coll->wait(ctx);
        cold_recv[r] = a.recvbuf;
        co_return;
      });
    }
    // Plans are engine-free: a fresh engine run binds them without any
    // setup communication and reproduces stats and delivery.
    Engine eng(machine_of(2, 4), CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      RankDense a(s, r);
      AlltoallvArgs args = a.args(s);
      Options mopts;
      mopts.plan = plans[r].get();
      auto coll = co_await alltoallv_init(ctx, ctx.world(), args, m, mopts);
      EXPECT_EQ(coll->stats().global_msgs, cold[r].global_msgs);
      EXPECT_EQ(coll->stats().global_values, cold[r].global_values);
      a.fill(s, r, 0);
      co_await coll->start(ctx);
      co_await coll->wait(ctx);
      EXPECT_EQ(a.recvbuf, cold_recv[r]) << to_string(m) << " rank " << r;
      co_return;
    });
  }
}

TEST(DensePlan, WrongPlanKindRejected) {
  const DenseSpec s = uniform_spec(4, 1, 8);
  // Build one plan of each kind, then feed each where it does not belong.
  std::shared_ptr<const PlanBase> agg, bru;
  {
    Engine eng(machine_of(2, 2), CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      RankDense a(s, ctx.rank());
      AlltoallvArgs args = a.args(s);
      auto p1 = co_await make_alltoall_plan(ctx, ctx.world(), args,
                                            AlltoallMethod::node_aggregated);
      auto p2 = co_await make_alltoall_plan(ctx, ctx.world(), args,
                                            AlltoallMethod::bruck);
      if (ctx.rank() == 0) {
        agg = p1;
        bru = p2;
      }
      co_return;
    });
  }
  ASSERT_NE(agg, nullptr);
  ASSERT_NE(bru, nullptr);
  struct Case {
    const PlanBase* plan;
    AlltoallMethod method;
  };
  const Case cases[] = {
      {bru.get(), AlltoallMethod::node_aggregated},
      {agg.get(), AlltoallMethod::bruck},
      {agg.get(), AlltoallMethod::standard},
  };
  for (const Case& c : cases) {
    Engine eng(machine_of(2, 2), CostParams::lassen());
    EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                   RankDense a(s, ctx.rank());
                   AlltoallvArgs args = a.args(s);
                   Options mopts;
                   mopts.plan = c.plan;
                   co_await alltoallv_init(ctx, ctx.world(), args, c.method,
                                           mopts);
                 }),
                 SimError)
        << to_string(c.method);
  }
}

TEST(DensePlan, StandardHasNoPlan) {
  const DenseSpec s = uniform_spec(4, 1, 8);
  Engine eng(machine_of(2, 2), CostParams::lassen());
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 RankDense a(s, ctx.rank());
                 AlltoallvArgs args = a.args(s);
                 co_await make_alltoall_plan(ctx, ctx.world(), args,
                                             AlltoallMethod::standard);
               }),
               SimError);
}

TEST(DensePlan, PlanCacheResolvesKinds) {
  const DenseSpec s = uniform_spec(4, 1, 8);
  std::shared_ptr<const PlanBase> agg, bru;
  {
    Engine eng(machine_of(2, 2), CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      RankDense a(s, ctx.rank());
      AlltoallvArgs args = a.args(s);
      auto p1 = co_await make_alltoall_plan(ctx, ctx.world(), args,
                                            AlltoallMethod::node_aggregated);
      auto p2 = co_await make_alltoall_plan(ctx, ctx.world(), args,
                                            AlltoallMethod::bruck);
      if (ctx.rank() == 0) {
        agg = p1;
        bru = p2;
      }
      co_return;
    });
  }
  harness::PlanCache cache;
  cache.put(1, 0, agg);
  cache.put(2, 0, bru);
  EXPECT_NE(cache.find<LocalityPlan>(1, 0), nullptr);
  EXPECT_NE(cache.find<BruckPlan>(2, 0), nullptr);
  // Wrong kind reads as absent (find_base still counts the hit).
  EXPECT_EQ(cache.find<BruckPlan>(1, 0), nullptr);
  EXPECT_EQ(cache.find<LocalityPlan>(2, 0), nullptr);
  EXPECT_NE(cache.find_base(1, 0), nullptr);
  EXPECT_EQ(cache.hits(), 5);
}

// ---------------------------------------------------------------------------
// Validation on the dense path.
// ---------------------------------------------------------------------------
TEST(DenseValidation, RaggedPayloadBufferRejected) {
  Engine eng(machine_of(1, 4), CostParams::lassen());
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        const DenseSpec s = uniform_spec(4, 1, 8);
        RankDense a(s, ctx.rank());
        AlltoallvArgs args = a.args(s);
        // 4 values of 8 bytes, minus a trailing half-element.
        args.sendbuf = args.sendbuf.first(args.sendbuf.size() - 4);
        co_await alltoallv_init(ctx, ctx.world(), args,
                                AlltoallMethod::bruck);
      }),
      SimError);
}

TEST(DenseValidation, WrongCountArityRejected) {
  Engine eng(machine_of(1, 4), CostParams::lassen());
  for (AlltoallMethod m : kAllAlltoallMethods) {
    EXPECT_THROW(
        eng.run([&](Context& ctx) -> Task<> {
          const DenseSpec s = uniform_spec(4, 1, 8);
          RankDense a(s, ctx.rank());
          AlltoallvArgs args = a.args(s);
          args.sendcounts.pop_back();  // 3 entries for a 4-rank comm
          args.sdispls.pop_back();
          co_await alltoallv_init(ctx, ctx.world(), args, m);
        }),
        SimError)
        << to_string(m);
  }
}
