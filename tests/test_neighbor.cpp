/// \file test_neighbor.cpp
/// \brief End-to-end verification of all three persistent neighbor
/// collectives: delivery correctness on arbitrary irregular patterns,
/// message-count invariants, and the paper's Example 2.1.

#include <gtest/gtest.h>

#include <tuple>

#include "pattern_util.hpp"
#include "simmpi/dist_graph.hpp"

using namespace simmpi;
using namespace mpix;
using pattern::GlobalPattern;
using pattern::RankArgs;

namespace {

struct Shape {
  int nodes;
  int rpn;  // one region per node
};

/// Per-rank recorded statistics for post-run assertions.
struct RunStats {
  std::vector<NeighborStats> standard_, partial_, full_;
  explicit RunStats(int n) : standard_(n), partial_(n), full_(n) {}
};

/// Run all three protocols on a pattern and verify delivered payloads.
RunStats run_all_protocols(const Shape& shape, const GlobalPattern& pat,
                           int iters = 3) {
  Engine eng(Machine({.num_nodes = shape.nodes, .regions_per_node = 1,
                      .ranks_per_region = shape.rpn}),
             CostParams::lassen());
  RunStats stats(pat.nranks);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = pattern::rank_args(pat, r);
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);

    auto standard =
        co_await neighbor_alltoallv_init(ctx, g, a.view(), Method::standard);
    auto partial =
        co_await neighbor_alltoallv_init(ctx, g, a.view(), Method::locality);
    auto full = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                 Method::locality_dedup);
    stats.standard_[r] = standard->stats();
    stats.partial_[r] = partial->stats();
    stats.full_[r] = full->stats();
    // Standard wraps every send segment in exactly one message, so its
    // counted values must sum to the send buffer size; the locality
    // variants re-route values through leaders, so only the internal
    // invariants apply.
    pattern::verify_stats(stats.standard_[r],
                          static_cast<long>(a.sendbuf.size()));
    pattern::verify_stats(stats.partial_[r]);
    pattern::verify_stats(stats.full_[r]);

    NeighborAlltoallv* protos[] = {standard.get(), partial.get(), full.get()};
    for (auto* proto : protos) {
      for (int it = 0; it < iters; ++it) {
        a.fill(100 * it + (proto == full.get() ? 7 : 0));
        std::fill(a.recvbuf.begin(), a.recvbuf.end(), -1.0);
        co_await proto->start(ctx);
        co_await proto->wait(ctx);
        for (std::size_t k = 0; k < a.recvbuf.size(); ++k)
          EXPECT_DOUBLE_EQ(a.recvbuf[k], a.expected[k])
              << proto->name() << " rank " << r << " pos " << k << " iter "
              << it;
      }
    }
    co_return;
  });
  return stats;
}

using pattern::sum_global_msgs;
using pattern::sum_global_values;

}  // namespace

/// Property sweep: machines x seeds.  Every protocol must deliver identical
/// payloads; aggregation must reduce inter-region message counts; dedup must
/// never increase inter-region values.
class NeighborProperty
    : public ::testing::TestWithParam<std::tuple<int, int, unsigned>> {};

INSTANTIATE_TEST_SUITE_P(
    MachinesAndSeeds, NeighborProperty,
    ::testing::Combine(::testing::Values(1, 2, 4),      // nodes (=regions)
                       ::testing::Values(1, 4, 8),      // ranks per region
                       ::testing::Values(1u, 2u, 3u)),  // pattern seed
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "r" +
             std::to_string(std::get<1>(info.param)) + "s" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(NeighborProperty, AllProtocolsDeliverIdenticalPayloads) {
  const auto [nodes, rpn, seed] = GetParam();
  const int nranks = nodes * rpn;
  GlobalPattern pat = pattern::random_pattern(nranks, seed);
  RunStats stats = run_all_protocols({nodes, rpn}, pat);

  // Aggregation: at most one inter-region message per directed region pair.
  const long pairs_bound = static_cast<long>(nodes) * (nodes - 1);
  EXPECT_LE(sum_global_msgs(stats.partial_), pairs_bound);
  EXPECT_LE(sum_global_msgs(stats.full_), pairs_bound);
  // The standard protocol sends at least as many inter-region messages.
  EXPECT_GE(sum_global_msgs(stats.standard_), sum_global_msgs(stats.partial_));
  // Dedup sends the same number of messages but never more values.
  EXPECT_EQ(sum_global_msgs(stats.partial_), sum_global_msgs(stats.full_));
  EXPECT_LE(sum_global_values(stats.full_), sum_global_values(stats.partial_));
  // Partial aggregation reshuffles but does not change total values crossing
  // region boundaries.
  EXPECT_EQ(sum_global_values(stats.partial_),
            sum_global_values(stats.standard_));
}

TEST(Neighbor, EmptyPatternWorks) {
  GlobalPattern pat;
  pat.nranks = 8;
  pat.sends.resize(8);
  RunStats stats = run_all_protocols({2, 4}, pat, 2);
  EXPECT_EQ(sum_global_msgs(stats.standard_), 0);
  EXPECT_EQ(sum_global_msgs(stats.partial_), 0);
}

TEST(Neighbor, PurelyLocalPatternSendsNoGlobalMessages) {
  // All traffic within one region.
  GlobalPattern pat = pattern::random_pattern(8, 11);
  RunStats stats = run_all_protocols({1, 8}, pat);
  EXPECT_EQ(sum_global_msgs(stats.standard_), 0);
  EXPECT_EQ(sum_global_msgs(stats.partial_), 0);
  EXPECT_EQ(sum_global_msgs(stats.full_), 0);
}

TEST(Neighbor, OneRankPerRegionDegeneratesGracefully) {
  // Aggregation with region size 1 still must deliver correctly (the
  // "leader" is always the rank itself).
  GlobalPattern pat = pattern::random_pattern(6, 13);
  RunStats stats = run_all_protocols({6, 1}, pat);
  EXPECT_GE(sum_global_msgs(stats.standard_), 0);
}

TEST(Neighbor, SelfLoopsAreDelivered) {
  GlobalPattern pat;
  pat.nranks = 4;
  pat.sends.resize(4);
  pat.sends[2][2] = {201, 202};  // rank 2 sends to itself
  pat.sends[0][1] = {5};
  run_all_protocols({1, 4}, pat, 2);
}

TEST(Neighbor, DedupRequiresIndices) {
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 2}),
             CostParams::lassen());
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        GlobalPattern pat = pattern::random_pattern(4, 1);
        RankArgs a = pattern::rank_args(pat, ctx.rank());
        DistGraph g = co_await dist_graph_create_adjacent(
            ctx, ctx.world(), a.sources, a.destinations,
            GraphAlgo::handshake);
        auto args = a.view();
        args.send_idx = {};  // strip the extension data
        co_await neighbor_alltoallv_init(ctx, g, args,
                                         Method::locality_dedup);
      }),
      SimError);
}

TEST(Neighbor, MismatchedCountsRejected) {
  Engine eng(Machine({.num_nodes = 1, .regions_per_node = 1,
                      .ranks_per_region = 2}),
             CostParams::lassen());
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        GlobalPattern pat = pattern::random_pattern(2, 2);
        RankArgs a = pattern::rank_args(pat, ctx.rank());
        DistGraph g = co_await dist_graph_create_adjacent(
            ctx, ctx.world(), a.sources, a.destinations,
            GraphAlgo::handshake);
        auto args = a.view();
        args.sendcounts.push_back(1);  // wrong arity
        co_await neighbor_alltoallv_init(ctx, g, args, Method::standard);
      }),
      SimError);
}

// ---------------------------------------------------------------------------
// Duplicate destinations/sources in the adjacency (legal in MPI dist
// graphs): the standard method must deliver them deterministically —
// sends and recvs of one (src, dst) channel match in segment order at
// every engine width — while the locality methods, whose aggregation maps
// are keyed by peer rank, must reject them loudly instead of silently
// merging segments.
// ---------------------------------------------------------------------------
TEST(Neighbor, DuplicateEdgesDeliverDeterministicallyWithStandard) {
  std::vector<double> recv_by_width[2];
  const int widths[] = {1, 4};
  for (int wi = 0; wi < 2; ++wi) {
    Engine eng(Machine({.num_nodes = 1, .regions_per_node = 1,
                        .ranks_per_region = 2}),
               CostParams::lassen(), Engine::Options{.threads = widths[wi]});
    std::vector<double>& got = recv_by_width[wi];
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      std::vector<double> sendbuf, recvbuf;
      DistGraph g;
      g.comm = ctx.world();
      AlltoallvArgs args;
      if (r == 0) {
        // Two distinct segments toward the same destination.
        g.destinations = {1, 1};
        sendbuf = {1.0, 2.0, 10.0, 20.0, 30.0};
        args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                      .sendcounts = {2, 3},
                                      .sdispls = {0, 2},
                                      .recvbuf = recvbuf,
                                      .recvcounts = {},
                                      .rdispls = {}};
      } else {
        g.sources = {0, 0};
        recvbuf.assign(5, -1.0);
        args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                      .sendcounts = {},
                                      .sdispls = {},
                                      .recvbuf = recvbuf,
                                      .recvcounts = {2, 3},
                                      .rdispls = {0, 2}};
      }
      auto coll =
          co_await neighbor_alltoallv_init(ctx, g, args, Method::standard);
      co_await coll->start(ctx);
      co_await coll->wait(ctx);
      if (r == 1) {
        // FIFO per channel: segment i of the sender lands in recv slot i.
        EXPECT_EQ(recvbuf, (std::vector<double>{1, 2, 10, 20, 30}));
        got = recvbuf;
      }
      co_return;
    });
  }
  EXPECT_EQ(recv_by_width[0], recv_by_width[1]);
}

TEST(Neighbor, DuplicateEdgesRejectedByLocalityMethods) {
  for (Method m : {Method::locality, Method::locality_dedup}) {
    Engine eng(Machine({.num_nodes = 1, .regions_per_node = 1,
                        .ranks_per_region = 2}),
               CostParams::lassen());
    EXPECT_THROW(
        eng.run([&](Context& ctx) -> Task<> {
          const int r = ctx.rank();
          std::vector<double> sendbuf, recvbuf;
          std::vector<gidx> send_idx, recv_idx;
          DistGraph g;
          g.comm = ctx.world();
          AlltoallvArgs args;
          if (r == 0) {
            g.destinations = {1, 1};
            sendbuf = {1.0, 2.0};
            send_idx = {100, 101};
            args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                          .sendcounts = {1, 1},
                                          .sdispls = {0, 1},
                                          .recvbuf = recvbuf,
                                          .recvcounts = {},
                                          .rdispls = {},
                                          .send_idx = send_idx};
          } else {
            g.sources = {0, 0};
            recvbuf.assign(2, -1.0);
            recv_idx = {100, 101};
            args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                          .sendcounts = {},
                                          .sdispls = {},
                                          .recvbuf = recvbuf,
                                          .recvcounts = {1, 1},
                                          .rdispls = {0, 1},
                                          .recv_idx = recv_idx};
          }
          co_await neighbor_alltoallv_init(ctx, g, args, m);
        }),
        SimError)
        << static_cast<int>(m);
  }
}

// ---------------------------------------------------------------------------
// The paper's Example 2.1 (Figures 2-5): two regions of four ranks; region 0
// holds two values per rank (circle = gid 2r, square = gid 2r+1), shaded
// with the destination ranks in region 1.
// ---------------------------------------------------------------------------
namespace {
GlobalPattern example_2_1() {
  GlobalPattern p;
  p.nranks = 8;
  p.sends.resize(8);
  auto add = [&](int src, mpix::gidx gid, std::initializer_list<int> dsts) {
    for (int d : dsts) p.sends[src][d].push_back(gid);
  };
  // P0: circle(0) -> P5, P6 ; square(1) -> P4, P5, P7    (paper text)
  add(0, 0, {5, 6});
  add(0, 1, {4, 5, 7});
  // P2: circle(4) -> P4, P7 ; square(5) -> P4, P5, P6    (paper text)
  add(2, 4, {4, 7});
  add(2, 5, {4, 5, 6});
  // P1, P3: consistent completion to the paper's 15 total messages.
  add(1, 2, {4, 6});
  add(1, 3, {5, 6, 7});
  add(3, 6, {7});
  add(3, 7, {4, 6});
  for (auto& m : p.sends)
    for (auto& [d, gids] : m) std::sort(gids.begin(), gids.end());
  return p;
}
}  // namespace

TEST(Example21, StandardSendsFifteenInterRegionMessages) {
  GlobalPattern pat = example_2_1();
  RunStats stats = run_all_protocols({2, 4}, pat);
  EXPECT_EQ(sum_global_msgs(stats.standard_), 15);
  // P0 and P2 each send 4 inter-region messages (Figure 3).
  EXPECT_EQ(stats.standard_[0].global_msgs, 4);
  EXPECT_EQ(stats.standard_[2].global_msgs, 4);
}

TEST(Example21, AggregationSendsOneInterRegionMessage) {
  GlobalPattern pat = example_2_1();
  RunStats stats = run_all_protocols({2, 4}, pat);
  // One destination region => a single aggregated message (Figure 4).
  EXPECT_EQ(sum_global_msgs(stats.partial_), 1);
  EXPECT_EQ(sum_global_msgs(stats.full_), 1);
  // Partial aggregation still moves every copy (18 value copies across the
  // 15 standard messages: P0/P2 bundle two values toward P4/P5).
  EXPECT_EQ(sum_global_values(stats.partial_), 18);
}

TEST(Example21, DedupSendsEachValueOnce) {
  GlobalPattern pat = example_2_1();
  RunStats stats = run_all_protocols({2, 4}, pat);
  // Eight distinct values (2 per rank in region 0) cross once (Figure 5).
  EXPECT_EQ(sum_global_values(stats.full_), 8);
}

// ---------------------------------------------------------------------------
// Exact dedup plan of a hand-checked pattern: two regions of two ranks,
// traffic from region 0 (ranks 0, 1) to region 1 (ranks 2, 3) only, so
// rank 0 leads the outbound pair and rank 2 the inbound one.
//   rank 0 -> 3: gids {7, 5, 7}   (rank 3 receives gid 7 twice)
//   rank 1 -> 3: gids {9, 4}      (listed first: destinations {3, 2})
//   rank 1 -> 2: gids {4, 6}      (gid 4 goes to both ranks of region 1)
// The pair's message is src 0's unique {5, 7} then src 1's {4, 6, 9}.
// ---------------------------------------------------------------------------
TEST(DedupPlan, HandCheckedIndexMaps) {
  struct Spec {
    std::vector<int> dsts, srcs;
    std::vector<std::vector<gidx>> send, recv;  // one segment per peer
  };
  const Spec spec[4] = {
      {.dsts = {3}, .srcs = {}, .send = {{7, 5, 7}}, .recv = {}},
      {.dsts = {3, 2}, .srcs = {}, .send = {{9, 4}, {4, 6}}, .recv = {}},
      {.dsts = {}, .srcs = {1}, .send = {}, .recv = {{4, 6}}},
      {.dsts = {}, .srcs = {0, 1}, .send = {}, .recv = {{7, 5, 7}, {9, 4}}},
  };
  std::shared_ptr<const LocalityPlan> plans[4];
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 2}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a;
    a.destinations = spec[r].dsts;
    a.sources = spec[r].srcs;
    for (const auto& seg : spec[r].send) {
      a.sdispls.push_back(static_cast<int>(a.send_idx.size()));
      a.sendcounts.push_back(static_cast<int>(seg.size()));
      a.send_idx.insert(a.send_idx.end(), seg.begin(), seg.end());
    }
    for (const auto& seg : spec[r].recv) {
      a.rdispls.push_back(static_cast<int>(a.recv_idx.size()));
      a.recvcounts.push_back(static_cast<int>(seg.size()));
      a.recv_idx.insert(a.recv_idx.end(), seg.begin(), seg.end());
    }
    a.sendbuf.resize(a.send_idx.size());
    a.recvbuf.assign(a.recv_idx.size(), -1.0);
    a.expected.resize(a.recv_idx.size());
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    auto proto = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                  Method::locality_dedup);
    plans[r] = proto->plan();
    a.fill(0);
    co_await proto->start(ctx);
    co_await proto->wait(ctx);
    EXPECT_EQ(a.recvbuf, a.expected) << "rank " << r;
    co_return;
  });
  using V = std::vector<int>;

  // Rank 0 leads: keep-first of {7, 5, 7} is positions {1 (gid 5), 0 (gid
  // 7)}, staged at its block {0, 1}; rank 1's three unique gids land at 2..4.
  const LocalityPlan& p0 = *plans[0];
  EXPECT_EQ(p0.s_self.src, (V{1, 0}));
  EXPECT_EQ(p0.s_self.dst, (V{0, 1}));
  EXPECT_TRUE(p0.s_sends.empty());
  ASSERT_EQ(p0.s_recvs.size(), 1u);
  EXPECT_EQ(p0.s_recvs[0].peer, 1);
  EXPECT_EQ(p0.s_recvs[0].scatter_dst, (V{2, 3, 4}));

  // Rank 1 enumerates its edges by destination (2 before 3), so gid 4 is
  // kept from position 2 (segment to rank 2), not from the smaller 1.
  const LocalityPlan& p1 = *plans[1];
  EXPECT_TRUE(p1.s_self.src.empty());
  ASSERT_EQ(p1.s_sends.size(), 1u);
  EXPECT_EQ(p1.s_sends[0].peer, 0);
  EXPECT_EQ(p1.s_sends[0].gather, (V{2, 3, 0}));  // gids 4, 6, 9

  // Rank 2 leads the inbound pair: it keeps {4, 6} (message positions 2, 3)
  // and forwards rank 3's unique gids {5, 7} and {4, 9}.
  const LocalityPlan& p2 = *plans[2];
  ASSERT_EQ(p2.r_sends.size(), 1u);
  EXPECT_EQ(p2.r_sends[0].peer, 3);
  EXPECT_EQ(p2.r_sends[0].gather, (V{0, 1, 2, 4}));
  EXPECT_EQ(p2.r_self.src, (V{2, 3}));
  EXPECT_EQ(p2.r_self.dst, (V{0, 1}));
  EXPECT_TRUE(p2.r_recvs.empty());

  // Rank 3 receives {5, 7, 4, 9} and scatters gid 7 to both positions 0, 2.
  const LocalityPlan& p3 = *plans[3];
  EXPECT_TRUE(p3.r_sends.empty());
  ASSERT_EQ(p3.r_recvs.size(), 1u);
  EXPECT_EQ(p3.r_recvs[0].peer, 2);
  EXPECT_EQ(p3.r_recvs[0].values, 4);
  EXPECT_EQ(p3.r_recvs[0].scatter_src, (V{0, 1, 1, 2, 3}));
  EXPECT_EQ(p3.r_recvs[0].scatter_dst, (V{1, 0, 2, 4, 3}));
}
