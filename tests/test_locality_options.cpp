/// \file test_locality_options.cpp
/// \brief Locality-method knobs: LPT vs round-robin leader assignment must
/// not change delivered payloads (only the per-leader load balance), and
/// Method::locality vs Method::locality_dedup must deliver byte-identical
/// receive buffers on patterns whose send_idx contains duplicates.  The
/// dedup plan build must also stay subquadratic in the segment length.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "pattern_util.hpp"
#include "simmpi/dist_graph.hpp"

using namespace simmpi;
using namespace mpix;
using pattern::GlobalPattern;
using pattern::RankArgs;

namespace {

/// Per-rank receive buffers (after the last iteration) and statistics of
/// one locality-aware run.
struct RunResult {
  std::vector<std::vector<double>> recv;
  std::vector<NeighborStats> stats;
};

RunResult run_locality(int nodes, int rpn, const GlobalPattern& pat,
                       Method method, Options opts = {}, int iters = 2) {
  Engine eng(Machine({.num_nodes = nodes, .regions_per_node = 1,
                      .ranks_per_region = rpn}),
             CostParams::lassen());
  RunResult out;
  out.recv.resize(pat.nranks);
  out.stats.resize(pat.nranks);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = pattern::rank_args(pat, r);
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    auto proto =
        co_await neighbor_alltoallv_init(ctx, g, a.view(), method, opts);
    out.stats[r] = proto->stats();
    pattern::verify_stats(out.stats[r]);
    for (int it = 0; it < iters; ++it) {
      a.fill(it);
      std::fill(a.recvbuf.begin(), a.recvbuf.end(), -3.0);
      co_await proto->start(ctx);
      co_await proto->wait(ctx);
      for (std::size_t k = 0; k < a.recvbuf.size(); ++k)
        EXPECT_DOUBLE_EQ(a.recvbuf[k], a.expected[k])
            << to_string(method) << " rank " << r << " pos " << k << " iter "
            << it;
    }
    out.recv[r] = a.recvbuf;
    co_return;
  });
  return out;
}

bool bytes_equal(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

using pattern::max_global_values;
using pattern::sum_global_values;

/// Region 0 (two ranks) sends 1 / 2 / 3 values to regions 1 / 2 / 3.  With
/// two candidate leaders, round-robin assigns regions {1, 3} to core 0 and
/// {2} to core 1 (loads 4 / 2), while LPT yields the even 3 / 3 split.
GlobalPattern skewed_pattern() {
  GlobalPattern p;
  p.nranks = 8;
  p.sends.resize(8);
  p.sends[0][2] = {1001};
  p.sends[0][4] = {1002, 1003};
  p.sends[1][6] = {1004, 1005, 1006};
  return p;
}

/// Rank 0 sends the *same* two values (equal send_idx) to both ranks of
/// every other region: dedup must collapse each region pair's payload to
/// the unique values without changing what arrives.
GlobalPattern duplicate_heavy_pattern(int nodes, int rpn) {
  GlobalPattern p;
  p.nranks = nodes * rpn;
  p.sends.resize(p.nranks);
  for (int d = rpn; d < p.nranks; ++d) p.sends[0][d] = {7, 8};
  return p;
}

}  // namespace

TEST(LocalityOptions, LptAndRoundRobinDeliverIdenticalExchanges) {
  for (unsigned seed : {1u, 5u, 9u}) {
    GlobalPattern pat = pattern::random_pattern(24, seed);
    RunResult lpt =
        run_locality(3, 8, pat, Method::locality, {.lpt_balance = true});
    RunResult rr =
        run_locality(3, 8, pat, Method::locality, {.lpt_balance = false});
    for (int r = 0; r < pat.nranks; ++r)
      EXPECT_TRUE(bytes_equal(lpt.recv[r], rr.recv[r]))
          << "seed " << seed << " rank " << r;
    // Leader choice reshuffles who sends, not how much crosses in total.
    EXPECT_EQ(sum_global_values(lpt.stats), sum_global_values(rr.stats))
        << "seed " << seed;
  }
}

TEST(LocalityOptions, LptBalancesLeaderLoadBetterThanRoundRobin) {
  GlobalPattern pat = skewed_pattern();
  RunResult lpt =
      run_locality(4, 2, pat, Method::locality, {.lpt_balance = true});
  RunResult rr =
      run_locality(4, 2, pat, Method::locality, {.lpt_balance = false});
  // Identical totals, different per-leader balance.
  EXPECT_EQ(sum_global_values(lpt.stats), 6);
  EXPECT_EQ(sum_global_values(rr.stats), 6);
  EXPECT_EQ(max_global_values(lpt.stats), 3);  // {3, 3}
  EXPECT_EQ(max_global_values(rr.stats), 4);   // {4, 2}
  for (int r = 0; r < pat.nranks; ++r)
    EXPECT_TRUE(bytes_equal(lpt.recv[r], rr.recv[r])) << "rank " << r;
}

TEST(LocalityOptions, DedupOnOffDeliverByteIdenticalRecvbufs) {
  // random_pattern draws each rank's values from a pool of three, so
  // duplicate send_idx across destinations is the common case.
  for (unsigned seed : {2u, 4u, 8u}) {
    GlobalPattern pat = pattern::random_pattern(16, seed);
    RunResult plain =
        run_locality(4, 4, pat, Method::locality);
    RunResult dedup =
        run_locality(4, 4, pat, Method::locality_dedup);
    for (int r = 0; r < pat.nranks; ++r)
      EXPECT_TRUE(bytes_equal(plain.recv[r], dedup.recv[r]))
          << "seed " << seed << " rank " << r;
    EXPECT_LE(sum_global_values(dedup.stats),
              sum_global_values(plain.stats))
        << "seed " << seed;
  }
}

TEST(LocalityOptions, DedupStrictlyReducesDuplicateHeavyTraffic) {
  const int nodes = 4, rpn = 2;
  GlobalPattern pat = duplicate_heavy_pattern(nodes, rpn);
  RunResult plain =
      run_locality(nodes, rpn, pat, Method::locality);
  RunResult dedup =
      run_locality(nodes, rpn, pat, Method::locality_dedup);
  for (int r = 0; r < pat.nranks; ++r)
    EXPECT_TRUE(bytes_equal(plain.recv[r], dedup.recv[r])) << "rank " << r;
  // Two values copied to both ranks of each of the three remote regions:
  // 12 copies without dedup, 2 unique values per region pair with it.
  EXPECT_EQ(sum_global_values(plain.stats), 12);
  EXPECT_EQ(sum_global_values(dedup.stats), 6);
}

// A plan build must scale with the values it routes, not with their square:
// one segment of 2^20 values carrying 2^19 distinct gids, each twice, in
// shuffled order.  A per-gid rescan of the segment or a sorted-insert map
// over its gids grows x4 per doubling (about 4 s at 2^16 values, so some
// 1000 s here); a sort-based build takes about a second, well inside the
// tier-1 timeout even under ThreadSanitizer.
TEST(LocalityDedup, LargeSegmentPlanBuildIsSubquadratic) {
  constexpr int kValues = 1 << 20;
  std::vector<gidx> idx(kValues);
  for (int k = 0; k < kValues; ++k) idx[k] = k / 2;
  std::shuffle(idx.begin(), idx.end(), std::mt19937(7));

  Engine eng(Machine::with_region_size(2, 1), CostParams::lassen());
  long delivered = 0;
  eng.run([&](Context& ctx) -> Task<> {
    const bool sender = ctx.rank() == 0;
    std::vector<double> sendbuf, recvbuf;
    // Named adjacency lists: GCC rejects initializer lists inside a
    // co_await expression.
    const std::vector<int> peer{sender ? 1 : 0}, none;
    DistGraph g;
    AlltoallvArgs args;
    if (sender) {
      sendbuf.resize(kValues);
      for (int k = 0; k < kValues; ++k)
        sendbuf[k] = pattern::value_of(idx[k], 0);
      g = co_await dist_graph_create_adjacent(ctx, ctx.world(), none, peer,
                                              GraphAlgo::handshake);
      args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                    .sendcounts = {kValues},
                                    .sdispls = {0},
                                    .recvbuf = recvbuf,
                                    .recvcounts = {},
                                    .rdispls = {},
                                    .send_idx = idx};
    } else {
      recvbuf.assign(kValues, -1.0);
      g = co_await dist_graph_create_adjacent(ctx, ctx.world(), peer, none,
                                              GraphAlgo::handshake);
      args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                    .sendcounts = {},
                                    .sdispls = {},
                                    .recvbuf = recvbuf,
                                    .recvcounts = {kValues},
                                    .rdispls = {0},
                                    .recv_idx = idx};
    }
    auto proto = co_await neighbor_alltoallv_init(ctx, g, args,
                                                  Method::locality_dedup);
    // Each gid crosses the region boundary once.
    if (sender) {
      EXPECT_EQ(proto->stats().global_values, kValues / 2);
    }
    co_await proto->start(ctx);
    co_await proto->wait(ctx);
    for (int k = 0; k < static_cast<int>(recvbuf.size()); ++k)
      if (recvbuf[k] == pattern::value_of(idx[k], 0)) ++delivered;
    co_return;
  });
  EXPECT_EQ(delivered, kValues);
}
