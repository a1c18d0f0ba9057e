/// \file test_mpix_detail.cpp
/// \brief Pure helpers behind the locality-aware collectives.

#include <gtest/gtest.h>

#include <numeric>

#include "mpix/detail.hpp"

using namespace mpix;
using namespace mpix::detail;

TEST(AssignLeaders, RoundRobinCycles) {
  std::vector<std::pair<int, long>> loads{{2, 10}, {5, 1}, {7, 99}, {9, 5}};
  auto a = assign_leaders(loads, 3, /*lpt=*/false);
  EXPECT_EQ(a, (std::vector<int>{0, 1, 2, 0}));
}

TEST(AssignLeaders, LptPutsHeaviestOnDistinctCores) {
  std::vector<std::pair<int, long>> loads{{0, 100}, {1, 90}, {2, 10}, {3, 5}};
  auto a = assign_leaders(loads, 2, /*lpt=*/true);
  // 100 -> core 0, 90 -> core 1, 10 -> core 1 (load 90+10 later? no: 100 vs
  // 90 => least loaded is core 1), then 5 -> core 1 has 100? Recompute:
  // loads after 100->c0, 90->c1: c0=100,c1=90; 10->c1 (95? 90+10=100); 5 ->
  // tie 100/100 -> lowest core c0.
  EXPECT_EQ(a[0], 0);
  EXPECT_EQ(a[1], 1);
  EXPECT_EQ(a[2], 1);
  EXPECT_EQ(a[3], 0);
}

TEST(AssignLeaders, LptBalancesTotalLoad) {
  std::vector<std::pair<int, long>> loads;
  for (int i = 0; i < 40; ++i) loads.emplace_back(i, 1 + (i * 37) % 100);
  auto a = assign_leaders(loads, 4, true);
  std::vector<long> per_core(4, 0);
  long total = 0;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    per_core[a[i]] += loads[i].second;
    total += loads[i].second;
  }
  for (long c : per_core) {
    EXPECT_GT(c, total / 4 - 110);
    EXPECT_LT(c, total / 4 + 110);
  }
}

TEST(AssignLeaders, DeterministicAcrossCalls) {
  std::vector<std::pair<int, long>> loads{{3, 7}, {8, 7}, {1, 7}};
  EXPECT_EQ(assign_leaders(loads, 2, true), assign_leaders(loads, 2, true));
}

TEST(AssignLeaders, SingleCoreTakesAll) {
  std::vector<std::pair<int, long>> loads{{0, 5}, {1, 6}};
  auto a = assign_leaders(loads, 1, true);
  EXPECT_EQ(a, (std::vector<int>{0, 0}));
}

TEST(UniqueSorted, RemovesDuplicatesAndSorts) {
  std::vector<gidx> g{5, 1, 5, 3, 1};
  EXPECT_EQ(unique_sorted(g), (std::vector<gidx>{1, 3, 5}));
  EXPECT_TRUE(unique_sorted(std::vector<gidx>{}).empty());
}

TEST(PairLayout, PartialSegmentsFollowEdgeOrder) {
  Edge e1{0, 4, 2, {}};
  Edge e2{0, 5, 3, {}};
  Edge e3{1, 4, 1, {}};
  std::vector<const Edge*> edges{&e1, &e2, &e3};
  PairLayout lay = pair_layout(edges, false);
  EXPECT_EQ(lay.total, 6);
  ASSERT_EQ(lay.segments.size(), 3u);
  EXPECT_EQ(lay.segments, (std::vector<long>{0, 2, 5}));
  EXPECT_TRUE(lay.src_blocks.empty());
}

TEST(PairLayout, DedupMergesPerSource) {
  const gidx g1[] = {10, 11}, g2[] = {11, 12}, g3[] = {20, 21};
  Edge e1{0, 4, 2, g1};
  Edge e2{0, 5, 2, g2};
  Edge e3{1, 4, 2, g3};
  std::vector<const Edge*> edges{&e1, &e2, &e3};
  PairLayout lay = pair_layout(edges, true);
  // src 0 contributes unique {10,11,12}; src 1 contributes {20,21}.
  EXPECT_EQ(lay.total, 5);
  ASSERT_EQ(lay.src_blocks.size(), 2u);
  EXPECT_EQ(lay.src_blocks[0].src, 0);
  EXPECT_EQ(lay.src_blocks[0].gids, (std::vector<gidx>{10, 11, 12}));
  EXPECT_EQ(lay.src_blocks[0].offset, 0);
  EXPECT_EQ(lay.src_blocks[1].src, 1);
  EXPECT_EQ(lay.src_blocks[1].offset, 3);
  EXPECT_EQ(lay.block(0).find(12), 2);
  EXPECT_EQ(lay.block(1).find(20), 3);
  EXPECT_THROW(lay.block(0).find(99), simmpi::SimError);
  EXPECT_THROW(lay.block(9), simmpi::SimError);
}

TEST(PairLayout, DedupNeverLargerThanPartial) {
  const gidx g1[] = {1, 2, 3}, g2[] = {1, 2, 3}, g3[] = {7};
  Edge e1{0, 4, 3, g1};
  Edge e2{0, 5, 3, g2};
  Edge e3{2, 5, 1, g3};
  std::vector<const Edge*> edges{&e1, &e2, &e3};
  EXPECT_LE(pair_layout(edges, true).total, pair_layout(edges, false).total);
  EXPECT_EQ(pair_layout(edges, true).total, 4);   // {1,2,3} + {7}
  EXPECT_EQ(pair_layout(edges, false).total, 7);  // all copies
}

// ---------------------------------------------------------------------------
// validate_args error paths.  DistGraph is an aggregate and validate_args
// only reads adjacency sizes, so no engine is needed.
// ---------------------------------------------------------------------------
namespace {

/// One destination (2 values), one source (3 values), double payload.
struct ArgsFixture {
  simmpi::DistGraph graph;
  std::vector<double> sendbuf = std::vector<double>(2);
  std::vector<double> recvbuf = std::vector<double>(3);
  std::vector<gidx> send_idx{10, 11};
  std::vector<gidx> recv_idx{20, 21, 22};

  ArgsFixture() {
    graph.destinations = {1};
    graph.sources = {2};
  }

  AlltoallvArgs args() {
    return AlltoallvArgsT<double>{.sendbuf = sendbuf,
                                  .sendcounts = {2},
                                  .sdispls = {0},
                                  .recvbuf = recvbuf,
                                  .recvcounts = {3},
                                  .rdispls = {0},
                                  .send_idx = send_idx,
                                  .recv_idx = recv_idx};
  }
};

}  // namespace

TEST(ValidateArgs, AcceptsMatchingPattern) {
  ArgsFixture f;
  EXPECT_NO_THROW(validate_args(f.graph, f.args(), /*need_idx=*/false));
  EXPECT_NO_THROW(validate_args(f.graph, f.args(), /*need_idx=*/true));
}

TEST(ValidateArgs, RejectsCountAndDisplArityMismatch) {
  ArgsFixture f;
  auto a = f.args();
  a.sendcounts.push_back(1);
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.sdispls.clear();
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.recvcounts = {3, 1};
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.rdispls = {};
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
}

TEST(ValidateArgs, RejectsNegativeCountsAndDispls) {
  ArgsFixture f;
  auto a = f.args();
  a.sendcounts[0] = -1;
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.sdispls[0] = -2;
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.recvcounts[0] = -3;
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.rdispls[0] = -1;
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
}

TEST(ValidateArgs, RejectsSegmentsExceedingBuffers) {
  ArgsFixture f;
  auto a = f.args();
  a.sendcounts[0] = 3;  // only 2 values in sendbuf
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.sdispls[0] = 1;  // displ 1 + count 2 > 2 values
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.rdispls[0] = 1;  // displ 1 + count 3 > 3 values
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
}

TEST(ValidateArgs, RejectsMismatchedElementSize) {
  ArgsFixture f;
  auto a = f.args();
  // Same byte buffers, but claimed element twice as wide: the declared
  // segments no longer fit.
  a.element_size = 2 * sizeof(double);
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  a = f.args();
  a.element_size = 0;
  EXPECT_THROW(validate_args(f.graph, a, false), simmpi::SimError);
  // Narrower elements over the same bytes are fine (buffer over-covers).
  a = f.args();
  a.element_size = sizeof(float);
  EXPECT_NO_THROW(validate_args(f.graph, a, false));
}

TEST(ValidateArgs, DedupModeRequiresCoveringIndices) {
  ArgsFixture f;
  auto a = f.args();
  a.send_idx = {};
  EXPECT_THROW(validate_args(f.graph, a, true), simmpi::SimError);
  EXPECT_NO_THROW(validate_args(f.graph, a, false));  // only dedup needs idx
  a = f.args();
  a.recv_idx = a.recv_idx.first(2);  // one value short of recvbuf
  EXPECT_THROW(validate_args(f.graph, a, true), simmpi::SimError);
}

TEST(ValidatePlanArgs, RejectsPatternDrift) {
  ArgsFixture f;
  // A plan carrying exactly the fixture's pattern.
  LocalityPlan plan;
  plan.destinations = f.graph.destinations;
  plan.sources = f.graph.sources;
  plan.sendcounts = {2};
  plan.sdispls = {0};
  plan.recvcounts = {3};
  plan.rdispls = {0};
  EXPECT_NO_THROW(validate_plan_args(plan, f.graph, f.args()));

  auto a = f.args();
  a.sendcounts = {1};  // fits the buffer, but not the plan
  EXPECT_THROW(validate_plan_args(plan, f.graph, a), simmpi::SimError);

  simmpi::DistGraph other = f.graph;
  other.destinations = {3};
  EXPECT_THROW(validate_plan_args(plan, other, f.args()), simmpi::SimError);

  // Dedup plans additionally pin the index annotations.
  plan.dedup = true;
  plan.send_idx = {10, 11};
  plan.recv_idx = {20, 21, 22};
  EXPECT_NO_THROW(validate_plan_args(plan, f.graph, f.args()));
  std::vector<gidx> drifted{10, 99};
  a = f.args();
  a.send_idx = drifted;
  EXPECT_THROW(validate_plan_args(plan, f.graph, a), simmpi::SimError);
}

TEST(ValidateArgs, RejectsRaggedPayloadBuffers) {
  // A trailing partial value (buffer bytes not a multiple of element_size)
  // would be silently dropped by the value-count arithmetic; validate_args
  // must reject it and name the remainder.
  ArgsFixture f;
  auto a = f.args();
  a.sendbuf = a.sendbuf.first(a.sendbuf.size() - 3);
  try {
    validate_args(f.graph, a, false);
    FAIL() << "ragged sendbuf accepted";
  } catch (const simmpi::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("sendbuf"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("remainder 5"), std::string::npos);
  }
  a = f.args();
  a.recvbuf = a.recvbuf.first(a.recvbuf.size() - 7);
  try {
    validate_args(f.graph, a, false);
    FAIL() << "ragged recvbuf accepted";
  } catch (const simmpi::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("recvbuf"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("remainder 1"), std::string::npos);
  }
}

TEST(RejectDuplicateEdges, AcceptsUniqueAdjacency) {
  simmpi::DistGraph g;
  g.destinations = {3, 1, 2};
  g.sources = {0, 5};
  EXPECT_NO_THROW(reject_duplicate_edges(g));
  simmpi::DistGraph empty;
  EXPECT_NO_THROW(reject_duplicate_edges(empty));
}

TEST(RejectDuplicateEdges, NamesTheDuplicatedRank) {
  simmpi::DistGraph g;
  g.destinations = {2, 4, 2};
  g.sources = {1};
  try {
    reject_duplicate_edges(g);
    FAIL() << "duplicate destination accepted";
  } catch (const simmpi::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
  }
  g.destinations = {2, 4};
  g.sources = {7, 7};
  EXPECT_THROW(reject_duplicate_edges(g), simmpi::SimError);
}

// ---------------------------------------------------------------------------
// serialize_edges / parse_edges: the region's edge headers round-trip, and
// a corrupt count throws.
// ---------------------------------------------------------------------------
namespace {

/// Rank 0 sends 2 values to rank 1 and 1 to rank 3, and receives 2 from
/// rank 2; rank 1 sends 1 value to rank 0.  Returns both ranks' headers
/// concatenated, as the region allgather delivers them.
std::vector<long long> two_rank_blob() {
  auto comm = std::make_shared<const simmpi::CommData>(
      simmpi::CommData{0, {0, 1, 2, 3}});
  std::vector<double> buf(3);
  std::vector<long long> blob;

  simmpi::DistGraph g0{simmpi::Comm(nullptr, comm, 0), {2}, {1, 3}};
  auto b0 = serialize_edges(g0, AlltoallvArgsT<double>{.sendbuf = buf,
                                                       .sendcounts = {2, 1},
                                                       .sdispls = {0, 2},
                                                       .recvbuf = buf,
                                                       .recvcounts = {2},
                                                       .rdispls = {0}});
  simmpi::DistGraph g1{simmpi::Comm(nullptr, comm, 1), {}, {0}};
  auto b1 = serialize_edges(g1, AlltoallvArgsT<double>{.sendbuf = buf,
                                                       .sendcounts = {1},
                                                       .sdispls = {0},
                                                       .recvbuf = buf,
                                                       .recvcounts = {},
                                                       .rdispls = {}});
  blob.insert(blob.end(), b0.begin(), b0.end());
  blob.insert(blob.end(), b1.begin(), b1.end());
  return blob;
}

}  // namespace

TEST(ParseEdges, RoundTripsHeadersSortedWithoutGids) {
  const std::vector<long long> blob = two_rank_blob();
  // [rank, nout, (dst, count)..., nin, (src, count)...] per rank.
  EXPECT_EQ(blob, (std::vector<long long>{0, 2, 1, 2, 3, 1, 1, 2, 2,  //
                                          1, 1, 0, 1, 0}));
  std::vector<Edge> out, in;
  parse_edges(blob, out, in);
  ASSERT_EQ(out.size(), 3u);
  ASSERT_EQ(in.size(), 1u);
  // Sorted by (src, dst).
  EXPECT_EQ(out[0].src, 0);
  EXPECT_EQ(out[0].dst, 1);
  EXPECT_EQ(out[0].count, 2);
  EXPECT_EQ(out[1].src, 0);
  EXPECT_EQ(out[1].dst, 3);
  EXPECT_EQ(out[1].count, 1);
  EXPECT_EQ(out[2].src, 1);
  EXPECT_EQ(out[2].dst, 0);
  EXPECT_EQ(out[2].count, 1);
  EXPECT_EQ(in[0].src, 2);
  EXPECT_EQ(in[0].dst, 0);
  EXPECT_EQ(in[0].count, 2);
  for (const Edge* e : {&out[0], &out[1], &out[2], &in[0]})
    EXPECT_TRUE(e->gids.empty());
}

TEST(ParseEdges, NegativeCountThrows) {
  std::vector<long long> blob = two_rank_blob();
  blob[3] = -1;  // rank 0's first out-edge count
  std::vector<Edge> out, in;
  EXPECT_THROW(parse_edges(blob, out, in), simmpi::SimError);
}

TEST(EdgeOrdering, SortsBySrcThenDst) {
  std::vector<Edge> v;
  v.push_back(Edge{2, 1, 1, {}});
  v.push_back(Edge{1, 9, 1, {}});
  v.push_back(Edge{1, 2, 1, {}});
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v[0].src, 1);
  EXPECT_EQ(v[0].dst, 2);
  EXPECT_EQ(v[1].dst, 9);
  EXPECT_EQ(v[2].src, 2);
}
