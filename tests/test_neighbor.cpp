/// \file test_neighbor.cpp
/// \brief End-to-end verification of all three persistent neighbor
/// collectives: delivery correctness on arbitrary irregular patterns,
/// message-count invariants, and the paper's Example 2.1.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <string>
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

/// Per-rank recorded statistics and locality plans for post-run
/// assertions.
struct RunStats {
  std::vector<NeighborStats> standard_, partial_, full_;
  std::vector<std::shared_ptr<const LocalityPlan>> partial_plans_, full_plans_;
  explicit RunStats(int n)
      : standard_(n), partial_(n), full_(n), partial_plans_(n),
        full_plans_(n) {}
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
    stats.partial_plans_[r] =
        std::dynamic_pointer_cast<const LocalityPlan>(partial->plan());
    stats.full_plans_[r] =
        std::dynamic_pointer_cast<const LocalityPlan>(full->plan());
    // Standard wraps every send segment in exactly one message, so its
    // counted values must sum to the send buffer size; the locality
    // variants re-route values through leaders, so only the internal
    // invariants apply.
    pattern::verify_stats(stats.standard_[r],
                          static_cast<long>(a.sendbuf.size()));
    pattern::verify_stats(stats.partial_[r]);
    pattern::verify_stats(stats.full_[r]);

    const std::pair<Method, NeighborAlltoallv*> protos[] = {
        {Method::standard, standard.get()},
        {Method::locality, partial.get()},
        {Method::locality_dedup, full.get()}};
    for (const auto& entry : protos) {
      const Method m = entry.first;
      NeighborAlltoallv* proto = entry.second;
      for (int it = 0; it < iters; ++it) {
        a.fill(100 * it + (proto == full.get() ? 7 : 0));
        std::fill(a.recvbuf.begin(), a.recvbuf.end(), -1.0);
        co_await proto->start(ctx);
        co_await proto->wait(ctx);
        for (std::size_t k = 0; k < a.recvbuf.size(); ++k)
          EXPECT_DOUBLE_EQ(a.recvbuf[k], a.expected[k])
              << to_string(m) << " rank " << r << " pos " << k << " iter "
              << it;
      }
    }
    co_return;
  });
  return stats;
}

using pattern::sum_global_msgs;
using pattern::sum_global_values;

/// Tally of how often each position of an array is touched.
struct Cover {
  std::vector<int> hits;
  bool in_range = true;
  explicit Cover(long n) : hits(static_cast<std::size_t>(n), 0) {}
  void add(long pos, long len) {
    for (long k = pos; k < pos + len; ++k) {
      if (k < 0 || k >= static_cast<long>(hits.size()))
        in_range = false;
      else
        ++hits[static_cast<std::size_t>(k)];
    }
  }
  bool exactly_once() const {
    return in_range && std::all_of(hits.begin(), hits.end(),
                                   [](int h) { return h == 1; });
  }
  bool at_least_once() const {
    return in_range && std::all_of(hits.begin(), hits.end(),
                                   [](int h) { return h >= 1; });
  }
};

/// Whether no two consecutive runs abut on both sides, i.e. the list was
/// coalesced as it was built (and every run moves at least one value).
bool coalesced(const std::vector<CopyRun>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].len <= 0) return false;
    if (i > 0 && runs[i - 1].src + runs[i - 1].len == runs[i].src &&
        runs[i - 1].dst + runs[i - 1].len == runs[i].dst)
      return false;
  }
  return true;
}

/// Coverage invariants of one rank's locality plan: staged sends write
/// their message exactly once, staged receives read only inside theirs and
/// all of it, the s_stage and every receive segment of the rank's
/// arguments `a` are written exactly once, and every run list is
/// coalesced.
void check_run_coverage(const LocalityPlan& p, const RankArgs& a,
                        const std::string& what) {
  for (const auto* sends : {&p.s.sends, &p.r.sends})
    for (const auto& m : *sends) {
      Cover msg(m.values);
      for (const CopyRun& r : m.runs) msg.add(r.dst, r.len);
      EXPECT_TRUE(msg.exactly_once()) << what << " send to " << m.peer;
      EXPECT_TRUE(coalesced(m.runs)) << what << " send to " << m.peer;
    }
  for (const auto* recvs : {&p.s.recvs, &p.r.recvs})
    for (const auto& m : *recvs) {
      Cover msg(m.values);
      for (const CopyRun& r : m.runs) msg.add(r.src, r.len);
      EXPECT_TRUE(msg.at_least_once()) << what << " recv from " << m.peer;
      EXPECT_TRUE(coalesced(m.runs)) << what << " recv from " << m.peer;
    }
  EXPECT_TRUE(coalesced(p.s.self)) << what << " s.self";
  EXPECT_TRUE(coalesced(p.r.self)) << what << " r.self";

  Cover stage(p.s_stage_values);
  for (const CopyRun& r : p.s.self) stage.add(r.dst, r.len);
  for (const auto& m : p.s.recvs)
    for (const CopyRun& r : m.runs) stage.add(r.dst, r.len);
  EXPECT_TRUE(stage.exactly_once()) << what << " s_stage";

  // Every receive-segment position is written exactly once; positions
  // outside the segments are never written.
  long recv_values = 0;
  for (std::size_t i = 0; i < a.rdispls.size(); ++i)
    recv_values = std::max<long>(recv_values, a.rdispls[i] + a.recvcounts[i]);
  Cover need(recv_values), got(recv_values);
  for (std::size_t i = 0; i < a.rdispls.size(); ++i)
    need.add(a.rdispls[i], a.recvcounts[i]);
  for (const auto& m : p.l_recvs) got.add(m.displ, m.count);
  for (const CopyRun& r : p.r.self) got.add(r.dst, r.len);
  for (const auto& m : p.r.recvs)
    for (const CopyRun& r : m.runs) got.add(r.dst, r.len);
  EXPECT_TRUE(got.in_range) << what << " recvbuf";
  EXPECT_EQ(got.hits, need.hits) << what << " recvbuf";
}

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
  for (int r = 0; r < nranks; ++r) {
    const RankArgs a = pattern::rank_args(pat, r);
    check_run_coverage(*stats.partial_plans_[r], a,
                       "locality rank " + std::to_string(r));
    check_run_coverage(*stats.full_plans_[r], a,
                       "locality_dedup rank " + std::to_string(r));
  }
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

TEST(Neighbor, PeersOutsideTheCommunicatorRejected) {
  // A hand-built graph can name any int as a peer: init rejects one that
  // is not a rank of the graph's communicator, naming the entry and its
  // value, before any method reads it.
  struct Case {
    std::vector<int> sources, destinations;
    const char* what;
  };
  const Case cases[] = {
      {{1}, {4}, "destinations[0] is 4, not a rank of the 4-rank communicator"},
      {{-1}, {1}, "sources[0] is -1, not a rank of the 4-rank communicator"},
  };
  for (Method m : {Method::standard, Method::locality, Method::locality_dedup})
    for (const Case& c : cases) {
      Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                          .ranks_per_region = 2}),
                 CostParams::lassen());
      try {
        eng.run([&](Context& ctx) -> Task<> {
          std::vector<double> sendbuf(1), recvbuf(1);
          std::vector<gidx> send_idx{0}, recv_idx{0};
          DistGraph g;
          g.comm = ctx.world();
          g.sources = c.sources;
          g.destinations = c.destinations;
          AlltoallvArgs args = AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                                      .sendcounts = {1},
                                                      .sdispls = {0},
                                                      .recvbuf = recvbuf,
                                                      .recvcounts = {1},
                                                      .rdispls = {0},
                                                      .send_idx = send_idx,
                                                      .recv_idx = recv_idx};
          co_await neighbor_alltoallv_init(ctx, g, args, m);
        });
        ADD_FAILURE() << to_string(m) << " accepted: " << c.what;
      } catch (const SimError& e) {
        EXPECT_EQ(std::string(e.what()),
                  std::string("neighbor_alltoallv_init: ") + c.what)
            << to_string(m);
      }
    }
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
// Exact plans of a hand-checked pattern: two regions of two ranks,
// traffic from region 0 (ranks 0, 1) to region 1 (ranks 2, 3) only, so
// rank 0 leads the outbound pair and rank 2 the inbound one.
//   rank 0 -> 3: gids {7, 5, 7}   (rank 3 receives gid 7 twice)
//   rank 1 -> 3: gids {9, 4}      (listed first: destinations {3, 2})
//   rank 1 -> 2: gids {4, 6}      (gid 4 goes to both ranks of region 1)
// ---------------------------------------------------------------------------
namespace {

/// One rank's side of a hand-written pattern: one gid segment per peer,
/// in `dsts` / `srcs` order.
struct Spec {
  std::vector<int> dsts, srcs;
  std::vector<std::vector<gidx>> send, recv;
};

/// The hand-checked pattern above, rank by rank.
const std::vector<Spec> kHandChecked = {
    {.dsts = {3}, .srcs = {}, .send = {{7, 5, 7}}, .recv = {}},
    {.dsts = {3, 2}, .srcs = {}, .send = {{9, 4}, {4, 6}}, .recv = {}},
    {.dsts = {}, .srcs = {1}, .send = {}, .recv = {{4, 6}}},
    {.dsts = {}, .srcs = {0, 1}, .send = {}, .recv = {{7, 5, 7}, {9, 4}}},
};

RankArgs spec_args(const Spec& spec) {
  RankArgs a;
  a.destinations = spec.dsts;
  a.sources = spec.srcs;
  for (const auto& seg : spec.send) {
    a.sdispls.push_back(static_cast<int>(a.send_idx.size()));
    a.sendcounts.push_back(static_cast<int>(seg.size()));
    a.send_idx.insert(a.send_idx.end(), seg.begin(), seg.end());
  }
  for (const auto& seg : spec.recv) {
    a.rdispls.push_back(static_cast<int>(a.recv_idx.size()));
    a.recvcounts.push_back(static_cast<int>(seg.size()));
    a.recv_idx.insert(a.recv_idx.end(), seg.begin(), seg.end());
  }
  a.sendbuf.resize(a.send_idx.size());
  a.recvbuf.assign(a.recv_idx.size(), -1.0);
  a.expected.resize(a.recv_idx.size());
  return a;
}

/// Two regions of two ranks: region 0 holds ranks 0 and 1, region 1 ranks
/// 2 and 3.
Engine two_regions_of_two() {
  return Engine(Machine({.num_nodes = 2, .regions_per_node = 1,
                         .ranks_per_region = 2}),
                CostParams::lassen());
}

/// Run the hand-checked pattern under `method`, verify delivery, and
/// return every rank's plan.
std::vector<std::shared_ptr<const LocalityPlan>> hand_checked_plans(
    Method method) {
  std::vector<std::shared_ptr<const LocalityPlan>> plans(4);
  Engine eng = two_regions_of_two();
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    RankArgs a = spec_args(kHandChecked[r]);
    DistGraph g = co_await dist_graph_create_adjacent(
        ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
    auto proto = co_await neighbor_alltoallv_init(ctx, g, a.view(), method);
    plans[r] = std::dynamic_pointer_cast<const LocalityPlan>(proto->plan());
    a.fill(0);
    co_await proto->start(ctx);
    co_await proto->wait(ctx);
    EXPECT_EQ(a.recvbuf, a.expected) << "rank " << r;
    co_return;
  });
  return plans;
}

/// A run list expanded to its per-value (source, destination) positions.
struct PerValue {
  std::vector<int> src, dst;
};
PerValue expand(const std::vector<CopyRun>& runs) {
  PerValue v;
  for (const CopyRun& r : runs)
    for (long k = 0; k < r.len; ++k) {
      v.src.push_back(static_cast<int>(r.src + k));
      v.dst.push_back(static_cast<int>(r.dst + k));
    }
  return v;
}
/// A staged send's per-value gather map: the source position of each
/// message value, in message order (which the runs must follow).
std::vector<int> gather_map(const StagedPhase::Msg& m) {
  const PerValue v = expand(m.runs);
  std::vector<int> order(static_cast<std::size_t>(m.values));
  std::iota(order.begin(), order.end(), 0);
  EXPECT_EQ(v.dst, order) << "gather runs must write the message in order";
  return v.src;
}

}  // namespace

// The pair's dedup message is src 0's unique {5, 7} then src 1's
// {4, 6, 9}.  Expected maps are per value, compared through `expand`.
TEST(DedupPlan, HandCheckedIndexMaps) {
  const auto plans = hand_checked_plans(Method::locality_dedup);
  using V = std::vector<int>;

  // Rank 0 leads: keep-first of {7, 5, 7} is positions {1 (gid 5), 0 (gid
  // 7)}, staged at its block {0, 1}; rank 1's three unique gids land at 2..4.
  const LocalityPlan& p0 = *plans[0];
  EXPECT_EQ(expand(p0.s.self).src, (V{1, 0}));
  EXPECT_EQ(expand(p0.s.self).dst, (V{0, 1}));
  EXPECT_TRUE(p0.s.sends.empty());
  ASSERT_EQ(p0.s.recvs.size(), 1u);
  EXPECT_EQ(p0.s.recvs[0].peer, 1);
  EXPECT_EQ(expand(p0.s.recvs[0].runs).src, (V{0, 1, 2}));
  EXPECT_EQ(expand(p0.s.recvs[0].runs).dst, (V{2, 3, 4}));

  // Rank 1 enumerates its edges by destination (2 before 3), so gid 4 is
  // kept from position 2 (segment to rank 2), not from the smaller 1.
  const LocalityPlan& p1 = *plans[1];
  EXPECT_TRUE(p1.s.self.empty());
  ASSERT_EQ(p1.s.sends.size(), 1u);
  EXPECT_EQ(p1.s.sends[0].peer, 0);
  EXPECT_EQ(gather_map(p1.s.sends[0]), (V{2, 3, 0}));  // gids 4, 6, 9

  // Rank 2 leads the inbound pair: it keeps {4, 6} (message positions 2, 3)
  // and forwards rank 3's unique gids {5, 7} and {4, 9}.
  const LocalityPlan& p2 = *plans[2];
  ASSERT_EQ(p2.r.sends.size(), 1u);
  EXPECT_EQ(p2.r.sends[0].peer, 3);
  EXPECT_EQ(gather_map(p2.r.sends[0]), (V{0, 1, 2, 4}));
  EXPECT_EQ(expand(p2.r.self).src, (V{2, 3}));
  EXPECT_EQ(expand(p2.r.self).dst, (V{0, 1}));
  EXPECT_TRUE(p2.r.recvs.empty());

  // Rank 3 receives {5, 7, 4, 9} and scatters gid 7 to both positions 0, 2.
  const LocalityPlan& p3 = *plans[3];
  EXPECT_TRUE(p3.r.sends.empty());
  ASSERT_EQ(p3.r.recvs.size(), 1u);
  EXPECT_EQ(p3.r.recvs[0].peer, 2);
  EXPECT_EQ(p3.r.recvs[0].values, 4);
  EXPECT_EQ(expand(p3.r.recvs[0].runs).src, (V{0, 1, 1, 2, 3}));
  EXPECT_EQ(expand(p3.r.recvs[0].runs).dst, (V{1, 0, 2, 4, 3}));
}

// A dedup plan build sends each leader only the gids of the sender's own
// edges in the pairs that leader leads.  Every other set-up message is the
// same as a locality build's, so from a sync_reset a rank's region-tier
// init bytes exceed its locality init's by 8 per such gid.  With one pair
// per direction, core 0 (ranks 0 and 2) leads every pair, so ranks 1 and 3
// send, counted by hand:
//   hand-checked: rank 1 its out-edges {9, 4} and {4, 6} (4 gids), rank 3
//     its in-edges {7, 5, 7} and {9, 4} (5 gids);
//   both ways: rank 1 out {4, 6}, in {8, 9} and {2, 3} (6 gids), rank 3
//     out {1} and {2, 3}, in {7, 5, 7} (6 gids): each block carries out-
//     and in-edge gids.
TEST(DedupPlan, MembersSendLeadersOnlyTheirOwnPairsGids) {
  const std::vector<Spec> both_ways = {
      {.dsts = {3}, .srcs = {3}, .send = {{7, 5, 7}}, .recv = {{1}}},
      {.dsts = {2}, .srcs = {2, 3}, .send = {{4, 6}}, .recv = {{8, 9}, {2, 3}}},
      {.dsts = {1}, .srcs = {1}, .send = {{8, 9}}, .recv = {{4, 6}}},
      {.dsts = {0, 1}, .srcs = {0}, .send = {{1}, {2, 3}},
       .recv = {{7, 5, 7}}},
  };
  const std::pair<const std::vector<Spec>*, std::vector<std::uint64_t>>
      cases[] = {{&kHandChecked, {0, 4, 0, 5}}, {&both_ways, {0, 6, 0, 6}}};
  constexpr int kRegion = static_cast<int>(Locality::region);
  for (const auto& c : cases) {
    const std::vector<Spec>& spec = *c.first;
    std::vector<std::uint64_t> partial(4), full(4);
    Engine eng = two_regions_of_two();
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      RankArgs a = spec_args(spec[r]);
      DistGraph g = co_await dist_graph_create_adjacent(
          ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
      co_await ctx.engine().sync_reset(ctx);
      auto p = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                Method::locality);
      partial[r] = ctx.engine().stats(r).tier[kRegion].bytes;
      co_await ctx.engine().sync_reset(ctx);
      auto f = co_await neighbor_alltoallv_init(ctx, g, a.view(),
                                                Method::locality_dedup);
      full[r] = ctx.engine().stats(r).tier[kRegion].bytes;
      NeighborAlltoallv* const protos[] = {p.get(), f.get()};
      for (NeighborAlltoallv* proto : protos) {
        a.fill(0);
        co_await proto->start(ctx);
        co_await proto->wait(ctx);
        EXPECT_EQ(a.recvbuf, a.expected) << "rank " << r;
      }
    });
    for (int r = 0; r < 4; ++r)
      EXPECT_EQ(full[r], partial[r] + sizeof(gidx) * c.second[r])
          << "rank " << r << (c.first == &kHandChecked ? ", hand-checked"
                                                       : ", both ways");
  }
}

// A plan build's region traffic is O(own edges + led pairs) per member: a
// member that is neither its region's root nor a leader sends the same
// set-up bytes whatever its region's other members send.  Two regions of
// four; the two patterns differ only in rank 2's edges into region 1 (one
// edge, or three).  Region 0's only pairs, one per direction, are led by
// core 0, its root, so rank 1 holds no pair, yet it has edges of its own
// both ways.  Rank 2's own bytes must differ, or the patterns would not
// differ on the region tier at all.
TEST(PlanBuild, MemberTrafficIgnoresOtherMembersEdges) {
  const std::vector<Spec> one_edge = {
      {.dsts = {4}, .srcs = {5}, .send = {{1, 2}}, .recv = {{30}}},
      {.dsts = {3, 7}, .srcs = {6}, .send = {{7}, {8}}, .recv = {{31, 32}}},
      {.dsts = {4}, .srcs = {}, .send = {{3}}, .recv = {}},
      {.dsts = {}, .srcs = {1}, .send = {}, .recv = {{7}}},
      {.dsts = {}, .srcs = {0, 2}, .send = {}, .recv = {{1, 2}, {3}}},
      {.dsts = {0}, .srcs = {}, .send = {{30}}, .recv = {}},
      {.dsts = {1}, .srcs = {}, .send = {{31, 32}}, .recv = {}},
      {.dsts = {}, .srcs = {1}, .send = {}, .recv = {{8}}},
  };
  std::vector<Spec> three_edges = one_edge;
  three_edges[2] = {.dsts = {4, 5, 6}, .srcs = {},
                    .send = {{3}, {4}, {5, 6}}, .recv = {}};
  three_edges[5].srcs = {2};
  three_edges[5].recv = {{4}};
  three_edges[6].srcs = {2};
  three_edges[6].recv = {{5, 6}};

  constexpr int kRegion = static_cast<int>(Locality::region);
  // Region-tier init bytes per rank, per method (locality, then dedup).
  auto init_bytes = [&](const std::vector<Spec>& spec) {
    std::vector<std::array<std::uint64_t, 2>> bytes(8);
    Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                        .ranks_per_region = 4}),
               CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      RankArgs a = spec_args(spec[r]);
      DistGraph g = co_await dist_graph_create_adjacent(
          ctx, ctx.world(), a.sources, a.destinations, GraphAlgo::handshake);
      for (int k = 0; k < 2; ++k) {
        co_await ctx.engine().sync_reset(ctx);
        auto proto = co_await neighbor_alltoallv_init(
            ctx, g, a.view(), k == 0 ? Method::locality
                                     : Method::locality_dedup);
        bytes[r][k] = ctx.engine().stats(r).tier[kRegion].bytes;
        a.fill(k);
        co_await proto->start(ctx);
        co_await proto->wait(ctx);
        EXPECT_EQ(a.recvbuf, a.expected) << "rank " << r << " method " << k;
      }
    });
    return bytes;
  };
  const auto one = init_bytes(one_edge);
  const auto three = init_bytes(three_edges);
  for (int k = 0; k < 2; ++k) {
    EXPECT_EQ(one[1][k], three[1][k]) << "rank 1, method " << k;
    EXPECT_NE(one[2][k], three[2][k]) << "rank 2, method " << k;
  }
}

// The same pattern without dedup: the pair's message is its edges in
// (src, dst) order — 0->3 at 0..2, 1->2 at 3..4, 1->3 at 5..6 — and every
// run list holds at most one run per edge, coalesced where edges abut.
TEST(PartialPlan, HandCheckedRunLists) {
  const auto plans = hand_checked_plans(Method::locality);
  using R = std::vector<CopyRun>;

  // Rank 0 leads and stages its own 0->3 segment at 0..2; rank 1's two
  // edges are consecutive in the pair, so its scatter is one run.
  const LocalityPlan& p0 = *plans[0];
  EXPECT_EQ(p0.s_stage_values, 7);
  EXPECT_EQ(p0.s.self, (R{{0, 0, 3}}));
  EXPECT_TRUE(p0.s.sends.empty());
  ASSERT_EQ(p0.s.recvs.size(), 1u);
  EXPECT_EQ(p0.s.recvs[0].peer, 1);
  EXPECT_EQ(p0.s.recvs[0].values, 4);
  EXPECT_EQ(p0.s.recvs[0].runs, (R{{0, 3, 4}}));

  // Rank 1 gathers its segment to rank 2 (sendbuf 2..3) before the one to
  // rank 3 (sendbuf 0..1): the sources do not abut, so two runs.
  const LocalityPlan& p1 = *plans[1];
  EXPECT_TRUE(p1.s.self.empty());
  ASSERT_EQ(p1.s.sends.size(), 1u);
  EXPECT_EQ(p1.s.sends[0].peer, 0);
  EXPECT_EQ(p1.s.sends[0].values, 4);
  EXPECT_EQ(p1.s.sends[0].runs, (R{{2, 0, 2}, {0, 2, 2}}));

  // Rank 2 leads the inbound pair: it keeps 1->2 (g_stage 3..4) and
  // forwards 0->3 and 1->3, which do not abut in g_stage.
  const LocalityPlan& p2 = *plans[2];
  EXPECT_EQ(p2.g_stage_values, 7);
  ASSERT_EQ(p2.r.sends.size(), 1u);
  EXPECT_EQ(p2.r.sends[0].peer, 3);
  EXPECT_EQ(p2.r.sends[0].values, 5);
  EXPECT_EQ(p2.r.sends[0].runs, (R{{0, 0, 3}, {5, 3, 2}}));
  EXPECT_EQ(p2.r.self, (R{{3, 0, 2}}));
  EXPECT_TRUE(p2.r.recvs.empty());

  // Rank 3's segments from ranks 0 and 1 abut in both the message and its
  // recvbuf: the two edges coalesce into one run.
  const LocalityPlan& p3 = *plans[3];
  EXPECT_TRUE(p3.r.sends.empty());
  EXPECT_TRUE(p3.r.self.empty());
  ASSERT_EQ(p3.r.recvs.size(), 1u);
  EXPECT_EQ(p3.r.recvs[0].peer, 2);
  EXPECT_EQ(p3.r.recvs[0].values, 5);
  EXPECT_EQ(p3.r.recvs[0].runs, (R{{0, 0, 5}}));
}
