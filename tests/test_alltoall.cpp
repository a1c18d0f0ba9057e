/// \file test_alltoall.cpp
/// \brief End-to-end verification of the dense persistent alltoall{,v}
/// collectives (mpix/alltoall.hpp): byte-exact delivery of all three
/// methods against a host-side reference on uniform and ragged patterns,
/// bit-identical results across engine widths, exact network message
/// counts, plan feedback, and argument validation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <utility>

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
          << to_string(method) << " rank " << r << " iter " << it;
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
// Plan feedback.
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
        plans[r] = coll->plan();
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

// Exact Bruck plan of a hand-checked pattern: three regions of two ranks
// (R = 3, two rounds; leaders 0, 2, 4), one value per rank pair except
// that rank 1 sends nothing off-region.  Region traffic T[g][q] is 2 from
// region 0 toward each remote region and 4 everywhere else.  Resident
// layouts start as [distance 1 | distance 2]; after each round the final
// chunks lead in arrival order, and every chunk interior is sender-major,
// so a member reads every other value of a chunk.
TEST(DensePlan, HandCheckedBruckPlan) {
  DenseSpec s = uniform_spec(6, 1, 8);
  for (int dst = 2; dst < 6; ++dst) s.counts[1][dst] = 0;
  std::vector<std::shared_ptr<const BruckPlan>> plans(6);
  Engine eng(Machine::with_region_size(6, 2), CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankDense a(s, r);
    AlltoallvArgs args = a.args(s);
    auto coll =
        co_await alltoallv_init(ctx, ctx.world(), args, AlltoallMethod::bruck);
    plans[r] = std::dynamic_pointer_cast<const BruckPlan>(coll->plan());
    a.fill(s, r, 0);
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    EXPECT_EQ(a.recvbuf, a.expected) << "rank " << r;
    co_return;
  });
  for (const auto& p : plans) {
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->regions, 3);
  }
  using R = std::vector<CopyRun>;
  const auto expect_msg = [](const auto& m, int peer, long values,
                             const R& runs, const char* what) {
    EXPECT_EQ(m.peer, peer) << what;
    EXPECT_EQ(m.values, values) << what;
    EXPECT_EQ(m.runs, runs) << what;
  };
  struct RoundSpec {
    int send_peer, recv_peer;
    long send_values, recv_values;
    R gather, keep, merge;
  };
  const auto expect_rounds = [](const BruckPlan& p,
                                const std::vector<RoundSpec>& want) {
    ASSERT_EQ(p.rounds.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      const BruckPlan::Round& got = p.rounds[k];
      EXPECT_EQ(got.send_peer, want[k].send_peer) << "round " << k;
      EXPECT_EQ(got.recv_peer, want[k].recv_peer) << "round " << k;
      EXPECT_EQ(got.send_values, want[k].send_values) << "round " << k;
      EXPECT_EQ(got.recv_values, want[k].recv_values) << "round " << k;
      EXPECT_EQ(got.gather, want[k].gather) << "round " << k;
      EXPECT_EQ(got.keep, want[k].keep) << "round " << k;
      EXPECT_EQ(got.merge, want[k].merge) << "round " << k;
    }
  };

  // Leaders: their own remote-bound row straight into the resident buffer,
  // one fill receive and one deliver send per member, and their own
  // share of every final chunk.
  const BruckPlan& p0 = *plans[0];
  EXPECT_TRUE(p0.is_leader);
  EXPECT_EQ(p0.resident_values, 8);
  EXPECT_EQ(p0.fill.self, (R{{2, 0, 4}}));
  ASSERT_EQ(p0.fill.recvs.size(), 1u);
  expect_msg(p0.fill.recvs[0], 1, 0, R{}, "rank 0 fill from 1");
  expect_rounds(p0, {{2, 4, 2, 4, {{0, 0, 2}}, {{2, 4, 2}}, {{0, 0, 4}}},
                     {4, 2, 2, 4, {{4, 0, 2}}, {{0, 0, 4}}, {{0, 4, 4}}}});
  ASSERT_EQ(p0.deliver.sends.size(), 1u);
  expect_msg(p0.deliver.sends[0], 1, 4,
             R{{1, 0, 1}, {3, 1, 1}, {5, 2, 1}, {7, 3, 1}},
             "rank 0 deliver to 1");
  EXPECT_EQ(p0.deliver.self,
            (R{{0, 4, 1}, {2, 5, 1}, {4, 2, 1}, {6, 3, 1}}));

  const BruckPlan& p2 = *plans[2];
  EXPECT_TRUE(p2.is_leader);
  EXPECT_EQ(p2.fill.self, (R{{4, 0, 2}, {0, 4, 2}}));
  ASSERT_EQ(p2.fill.recvs.size(), 1u);
  expect_msg(p2.fill.recvs[0], 3, 4, R{{0, 2, 2}, {2, 6, 2}},
             "rank 2 fill from 3");
  expect_rounds(p2, {{4, 0, 4, 2, {{0, 0, 4}}, {{4, 2, 4}}, {{0, 0, 2}}},
                     {0, 4, 4, 4, {{2, 0, 4}}, {{0, 0, 2}}, {{0, 2, 4}}}});
  ASSERT_EQ(p2.deliver.sends.size(), 1u);
  expect_msg(p2.deliver.sends[0], 3, 3, R{{1, 0, 1}, {3, 1, 1}, {5, 2, 1}},
             "rank 2 deliver to 3");
  EXPECT_EQ(p2.deliver.self, (R{{0, 0, 1}, {2, 3, 1}, {4, 4, 1}}));

  const BruckPlan& p4 = *plans[4];
  EXPECT_TRUE(p4.is_leader);
  EXPECT_EQ(p4.fill.self, (R{{0, 0, 2}, {2, 4, 2}}));
  ASSERT_EQ(p4.fill.recvs.size(), 1u);
  expect_msg(p4.fill.recvs[0], 5, 4, R{{0, 2, 2}, {2, 6, 2}},
             "rank 4 fill from 5");
  expect_rounds(p4, {{0, 2, 4, 4, {{0, 0, 4}}, {{4, 4, 4}}, {{0, 0, 4}}},
                     {2, 0, 4, 2, {{4, 0, 4}}, {{0, 0, 4}}, {{0, 4, 2}}}});
  ASSERT_EQ(p4.deliver.sends.size(), 1u);
  expect_msg(p4.deliver.sends[0], 5, 3, R{{1, 0, 1}, {3, 1, 1}, {5, 2, 1}},
             "rank 4 deliver to 5");
  EXPECT_EQ(p4.deliver.self, (R{{0, 1, 1}, {2, 2, 1}, {4, 0, 1}}));

  // Members: one fill send and one deliver receive each, no rounds.  Rank
  // 1 has nothing to send off-region, yet still declares its (empty) fill
  // message, so the channel structure does not depend on counts.
  for (int r : {0, 2, 4}) {
    EXPECT_TRUE(plans[r]->fill.sends.empty()) << "rank " << r;
    EXPECT_TRUE(plans[r]->deliver.recvs.empty()) << "rank " << r;
  }
  for (int r : {1, 3, 5}) {
    const BruckPlan& p = *plans[r];
    EXPECT_FALSE(p.is_leader) << "rank " << r;
    EXPECT_TRUE(p.rounds.empty()) << "rank " << r;
    EXPECT_TRUE(p.fill.recvs.empty()) << "rank " << r;
    EXPECT_TRUE(p.fill.self.empty()) << "rank " << r;
    EXPECT_TRUE(p.deliver.sends.empty()) << "rank " << r;
    EXPECT_TRUE(p.deliver.self.empty()) << "rank " << r;
    ASSERT_EQ(p.fill.sends.size(), 1u) << "rank " << r;
    ASSERT_EQ(p.deliver.recvs.size(), 1u) << "rank " << r;
  }
  expect_msg(plans[1]->fill.sends[0], 0, 0, R{}, "rank 1 fill");
  EXPECT_EQ(plans[1]->stats.local_msgs, 3);  // two l-phase sends + fill
  expect_msg(plans[1]->deliver.recvs[0], 0, 4, R{{0, 4, 2}, {2, 2, 2}},
             "rank 1 deliver");
  expect_msg(plans[3]->fill.sends[0], 2, 4, R{{4, 0, 2}, {0, 2, 2}},
             "rank 3 fill");
  expect_msg(plans[3]->deliver.recvs[0], 2, 3, R{{0, 0, 1}, {1, 3, 2}},
             "rank 3 deliver");
  expect_msg(plans[5]->fill.sends[0], 4, 4, R{{0, 0, 4}}, "rank 5 fill");
  expect_msg(plans[5]->deliver.recvs[0], 4, 3, R{{0, 1, 2}, {2, 0, 1}},
             "rank 5 deliver");
}

namespace {
/// Rank 0's plans of both aggregated methods for `s` on two regions of
/// two, as `NeighborAlltoallv::plan()` returns them.
struct DensePlans {
  std::shared_ptr<const PlanBase> agg, bru;
};
DensePlans rank0_plans(const DenseSpec& s) {
  DensePlans out;
  Engine eng(machine_of(2, 2), CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    RankDense a(s, ctx.rank());
    AlltoallvArgs args = a.args(s);
    auto agg = co_await alltoallv_init(ctx, ctx.world(), args,
                                       AlltoallMethod::node_aggregated);
    auto bru =
        co_await alltoallv_init(ctx, ctx.world(), args, AlltoallMethod::bruck);
    if (ctx.rank() == 0) {
      out.agg = agg->plan();
      out.bru = bru->plan();
    }
  });
  return out;
}
}  // namespace

TEST(DensePlan, WrongPlanKindRejected) {
  const DenseSpec s = uniform_spec(4, 1, 8);
  // One plan of each kind, each fed where it does not belong.
  const auto [agg, bru] = rank0_plans(s);
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
  // A neighbor method needs a LocalityPlan too.
  const PlanBase* bruck_plan = bru.get();
  Engine eng(machine_of(2, 2), CostParams::lassen());
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 RankDense a(s, ctx.rank());
                 AlltoallvArgs args = a.args(s);
                 DistGraph g{ctx.world(), {0, 1, 2, 3}, {0, 1, 2, 3}};
                 co_await neighbor_alltoallv_init(ctx, g, args,
                                                  Method::locality,
                                                  {.plan = bruck_plan});
               }),
               SimError);
}

// A Bruck plan binds only the pattern and machine it was built for.  Fed
// back with drifted counts, or on a machine of the same size whose regions
// are smaller (its peers and layouts would misroute), init must throw.
TEST(DensePlan, ForeignBruckPlanRejected) {
  const DenseSpec s = uniform_spec(8, 1, 8);
  std::vector<std::shared_ptr<const PlanBase>> plans(8);
  {
    Engine eng(machine_of(2, 4), CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      RankDense a(s, ctx.rank());
      AlltoallvArgs args = a.args(s);
      auto coll = co_await alltoallv_init(ctx, ctx.world(), args,
                                          AlltoallMethod::bruck);
      plans[ctx.rank()] = coll->plan();
    });
  }
  DenseSpec drifted = s;
  for (auto& row : drifted.counts) row[0] = 2;  // one more value to rank 0
  struct Case {
    const DenseSpec& spec;
    Machine machine;
    const char* what;
  };
  const Case cases[] = {{drifted, machine_of(2, 4), "drifted counts"},
                        {s, machine_of(4, 2), "regions of 2, not 4"}};
  for (const Case& c : cases) {
    Engine eng(c.machine, CostParams::lassen());
    EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                   RankDense a(c.spec, ctx.rank());
                   AlltoallvArgs args = a.args(c.spec);
                   Options mopts;
                   mopts.plan = plans[ctx.rank()].get();
                   co_await alltoallv_init(ctx, ctx.world(), args,
                                           AlltoallMethod::bruck, mopts);
                 }),
                 SimError)
        << c.what;
  }
}

TEST(DensePlan, StandardHasNoPlan) {
  const DenseSpec s = uniform_spec(4, 1, 8);
  Engine eng(machine_of(2, 2), CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    RankDense a(s, ctx.rank());
    AlltoallvArgs args = a.args(s);
    auto coll = co_await alltoallv_init(ctx, ctx.world(), args,
                                        AlltoallMethod::standard);
    EXPECT_EQ(coll->plan(), nullptr);
  });
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

TEST(DenseValidation, InvalidMethodValuesRejected) {
  // An enumerator outside either method list selects no implementation.
  const DenseSpec s = uniform_spec(4, 1, 8);
  Engine eng(machine_of(1, 4), CostParams::lassen());
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 RankDense a(s, ctx.rank());
                 AlltoallvArgs args = a.args(s);
                 co_await alltoallv_init(ctx, ctx.world(), args,
                                         static_cast<AlltoallMethod>(3));
               }),
               SimError);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 RankDense a(s, ctx.rank());
                 AlltoallvArgs args = a.args(s);
                 DistGraph g{ctx.world(), {0, 1, 2, 3}, {0, 1, 2, 3}};
                 co_await neighbor_alltoallv_init(ctx, g, args,
                                                  static_cast<Method>(3));
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
