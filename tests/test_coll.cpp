/// \file test_coll.cpp
/// \brief Collective algorithms: correctness over varied communicator sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "simmpi/coll.hpp"
#include "simmpi/engine.hpp"

using namespace simmpi;

namespace {
Engine make_engine(int nranks) {
  // Small regions (4) so collectives cross several locality tiers; odd rank
  // counts fall back to one rank per region (all-network machine).
  const int rpn = (nranks % 4 == 0) ? 4 : 1;
  return Engine(Machine({.num_nodes = nranks / rpn, .regions_per_node = 1,
                         .ranks_per_region = rpn}),
                CostParams::lassen());
}
}  // namespace

/// Parameterized over communicator size, including non-powers of two.
class CollSize : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollSize,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 23,
                                           32, 48));

TEST_P(CollSize, BarrierCompletes) {
  const int p = GetParam();
  Engine eng = make_engine(p);
  // Rank programs run concurrently (worker-pool engine): shared counters
  // must be atomic.
  std::atomic<int> count{0};
  eng.run([&](Context& ctx) -> Task<> {
    co_await coll::barrier(ctx, ctx.world());
    ++count;
  });
  EXPECT_EQ(count.load(), p);
}

TEST_P(CollSize, AllreduceSum) {
  const int p = GetParam();
  Engine eng = make_engine(p);
  eng.run([&](Context& ctx) -> Task<> {
    long v = co_await coll::allreduce<long>(
        ctx, ctx.world(), static_cast<long>(ctx.rank() + 1),
        [](long a, long b) { return a + b; });
    EXPECT_EQ(v, static_cast<long>(p) * (p + 1) / 2);
  });
}

TEST_P(CollSize, AllreduceMax) {
  const int p = GetParam();
  Engine eng = make_engine(p);
  eng.run([&](Context& ctx) -> Task<> {
    double v = co_await coll::allreduce<double>(
        ctx, ctx.world(), static_cast<double>((ctx.rank() * 7) % p),
        [](double a, double b) { return std::max(a, b); });
    double expected = 0;
    for (int r = 0; r < p; ++r)
      expected = std::max(expected, static_cast<double>((r * 7) % p));
    EXPECT_DOUBLE_EQ(v, expected);
  });
}

TEST_P(CollSize, AllgatherCollectsEveryRank) {
  const int p = GetParam();
  Engine eng = make_engine(p);
  eng.run([&](Context& ctx) -> Task<> {
    auto all = co_await coll::allgather<int>(ctx, ctx.world(),
                                             ctx.rank() * 3 + 1);
    EXPECT_EQ(static_cast<int>(all.size()), p);
    if (static_cast<int>(all.size()) != p) co_return;
    for (int r = 0; r < p; ++r) EXPECT_EQ(all[r], r * 3 + 1);
  });
}

TEST_P(CollSize, AllgathervVariableSizes) {
  const int p = GetParam();
  Engine eng = make_engine(p);
  eng.run([&](Context& ctx) -> Task<> {
    // rank r contributes r%3+1 values of value 100*r+i.
    std::vector<int> mine;
    for (int i = 0; i < ctx.rank() % 3 + 1; ++i)
      mine.push_back(100 * ctx.rank() + i);
    std::vector<int> counts;
    auto all = co_await coll::allgatherv<int>(ctx, ctx.world(),
                                              std::move(mine), &counts);
    EXPECT_EQ(static_cast<int>(counts.size()), p);
    if (static_cast<int>(counts.size()) != p) co_return;
    long pos = 0;
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(counts[r], r % 3 + 1);
      for (int i = 0; i < counts[r]; ++i)
        EXPECT_EQ(all[pos++], 100 * r + i);
    }
    EXPECT_EQ(pos, static_cast<long>(all.size()));
  });
}

TEST_P(CollSize, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; root = root * 2 + 1) {
    Engine eng = make_engine(p);
    eng.run([&](Context& ctx) -> Task<> {
      std::vector<double> data(3);
      if (ctx.rank() == root) data = {3.5, -1.0, static_cast<double>(root)};
      co_await coll::bcast(ctx, ctx.world(), data, root);
      EXPECT_EQ(data.size(), 3u);
      if (data.size() != 3u) co_return;
      EXPECT_DOUBLE_EQ(data[0], 3.5);
      EXPECT_DOUBLE_EQ(data[2], root);
    });
  }
}

TEST(Coll, BcastRejectsAMissizedVector) {
  // MPI_Bcast semantics: every rank passes a vector of the broadcast size.
  // A non-root vector one value short (the message would be truncated) or
  // one value long (it would be left partly unwritten) is an error.
  for (int wrong : {2, 4}) {
    Engine eng = make_engine(4);
    EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                   std::vector<double> data(ctx.rank() == 3 ? wrong : 3, 1.0);
                   co_await coll::bcast(ctx, ctx.world(), data, 0);
                 }),
                 SimError)
        << wrong << " values on rank 3, 3 on the root";
  }
}

TEST(Coll, AlltoallvDeliversRaggedBlocks) {
  // Rank i sends (2i + j + 1) % 4 values to rank j: ragged, with zero
  // blocks, and a self block on every rank but rank 1.  Value k of the
  // block is 1000i + 100j + k.
  auto count = [](int i, int j) { return (2 * i + j + 1) % 4; };
  for (int p : {1, 3, 5}) {
    Engine eng = make_engine(p);
    eng.run([&](Context& ctx) -> Task<> {
      const int r = ctx.rank();
      std::vector<long> send;
      std::vector<int> sendcounts(p), recvcounts(p);
      for (int j = 0; j < p; ++j) {
        sendcounts[j] = count(r, j);
        recvcounts[j] = count(j, r);
        for (int k = 0; k < sendcounts[j]; ++k)
          send.push_back(1000 * r + 100 * j + k);
      }
      auto got = co_await coll::alltoallv<long>(ctx, ctx.world(), send,
                                                sendcounts, recvcounts);
      std::vector<long> want;
      for (int i = 0; i < p; ++i)
        for (int k = 0; k < count(i, r); ++k)
          want.push_back(1000 * i + 100 * r + k);
      EXPECT_EQ(got, want) << "rank " << r << " of " << p;
    });
    // Neither a zero block nor the self block is a message.
    for (int i = 0; i < p; ++i) {
      std::uint64_t msgs = 0;
      for (int j = 0; j < p; ++j) msgs += (j != i && count(i, j) > 0);
      EXPECT_EQ(eng.stats(i).total_msgs(), msgs) << "rank " << i << " of " << p;
    }
  }
}

TEST(Coll, AlltoallvRejectsAMissizedBlock) {
  // MPI_Alltoallv semantics: every receive is sized up front.  Rank 3
  // expecting one value fewer (the block would be truncated) or one more
  // (it would be left partly unwritten) than rank 1 sends is an error
  // naming both ranks and both sizes.
  for (int wrong : {2, 4}) {
    Engine eng = make_engine(4);
    try {
      eng.run([&](Context& ctx) -> Task<> {
        std::vector<double> send(4 * 3, 1.0);
        std::vector<int> sendcounts(4, 3), recvcounts(4, 3);
        if (ctx.rank() == 3) recvcounts[1] = wrong;
        co_await coll::alltoallv<double>(ctx, ctx.world(), send, sendcounts,
                                         recvcounts);
      });
      ADD_FAILURE() << wrong << " values expected, 3 sent: no error";
    } catch (const SimError& e) {
      const std::string what = e.what();
      for (const std::string& part :
           {std::string("1->3"), std::to_string(3 * sizeof(double)) + "B",
            std::to_string(wrong * sizeof(double)) + "B"})
        EXPECT_NE(what.find(part), std::string::npos)
            << "'" << part << "' missing from: " << what;
    }
  }
  // The self block is copied, not sent, so alltoallv checks it itself.
  Engine eng = make_engine(4);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 std::vector<double> send(4 * 3, 1.0);
                 std::vector<int> sendcounts(4, 3), recvcounts(4, 3);
                 if (ctx.rank() == 3) recvcounts[3] = 2;
                 co_await coll::alltoallv<double>(ctx, ctx.world(), send,
                                                  sendcounts, recvcounts);
               }),
               SimError);
}

namespace {

/// Values rank i contributes to (gatherv) or receives from (scatterv) the
/// root: ragged, with a zero block on rank 2.  Value k is 100i + k.
int ragged_count(int i) { return (3 * i + 2) % 4; }
std::vector<long> ragged_block(int i) {
  std::vector<long> v(static_cast<std::size_t>(ragged_count(i)));
  std::iota(v.begin(), v.end(), 100L * i);
  return v;
}

/// Messages each rank sent: one per non-root rank with a non-empty block,
/// on the rank that sends the blocks (every non-root for gatherv, the
/// root for scatterv).  The root's own block is copied, not sent.
void expect_one_message_per_nonempty_block(Engine& eng, int p,
                                           int root, bool root_sends) {
  std::uint64_t from_root = 0;
  for (int i = 0; i < p; ++i) {
    const bool sent = i != root && ragged_count(i) > 0;
    from_root += sent;
    if (i == root) continue;
    EXPECT_EQ(eng.stats(i).total_msgs(), root_sends || !sent ? 0u : 1u)
        << "rank " << i;
  }
  EXPECT_EQ(eng.stats(root).total_msgs(), root_sends ? from_root : 0u);
}

/// Whether `what` names the ranks of channel `src->dst` and both sizes of
/// a block of `sent` values that its receiver declared as `expected`.
void expect_names_block(const std::string& what, int src, int dst, int sent,
                        int expected) {
  for (const std::string& part :
       {std::to_string(src) + "->" + std::to_string(dst),
        std::to_string(sent * sizeof(double)) + "B",
        std::to_string(expected * sizeof(double)) + "B"})
    EXPECT_NE(what.find(part), std::string::npos)
        << "'" << part << "' missing from: " << what;
}

}  // namespace

TEST(Coll, GathervDeliversRaggedBlocks) {
  // Ragged blocks with a zero block, at root 0 and at the last rank; gather
  // is the one-value case.
  for (int p : {1, 3, 5}) {
    for (int root : {0, p - 1}) {
      Engine eng = make_engine(p);
      eng.run([&](Context& ctx) -> Task<> {
        const int r = ctx.rank();
        const std::vector<long> mine = ragged_block(r);
        std::vector<int> counts;
        if (r == root)
          for (int i = 0; i < p; ++i) counts.push_back(ragged_count(i));
        auto got = co_await coll::gatherv<long>(ctx, ctx.world(), mine,
                                                counts, root);
        std::vector<long> want;
        if (r == root)
          for (int i = 0; i < p; ++i) {
            const std::vector<long> b = ragged_block(i);
            want.insert(want.end(), b.begin(), b.end());
          }
        EXPECT_EQ(got, want) << "rank " << r << " of " << p << ", root "
                             << root;
      });
      expect_one_message_per_nonempty_block(eng, p, root, false);

      Engine eng1 = make_engine(p);
      eng1.run([&](Context& ctx) -> Task<> {
        const int r = ctx.rank();
        auto got = co_await coll::gather<int>(ctx, ctx.world(), 7 * r, root);
        std::vector<int> want;
        if (r == root)
          for (int i = 0; i < p; ++i) want.push_back(7 * i);
        EXPECT_EQ(got, want) << "rank " << r << " of " << p << ", root "
                             << root;
      });
    }
  }
}

TEST(Coll, ScattervDeliversRaggedBlocks) {
  for (int p : {1, 3, 5}) {
    for (int root : {0, p - 1}) {
      Engine eng = make_engine(p);
      eng.run([&](Context& ctx) -> Task<> {
        const int r = ctx.rank();
        std::vector<long> send;
        std::vector<int> counts;
        if (r == root)
          for (int i = 0; i < p; ++i) {
            const std::vector<long> b = ragged_block(i);
            send.insert(send.end(), b.begin(), b.end());
            counts.push_back(ragged_count(i));
          }
        auto got = co_await coll::scatterv<long>(ctx, ctx.world(), send,
                                                 counts, ragged_count(r),
                                                 root);
        EXPECT_EQ(got, ragged_block(r))
            << "rank " << r << " of " << p << ", root " << root;
      });
      expect_one_message_per_nonempty_block(eng, p, root, true);
    }
  }
}

TEST(Coll, GathervRejectsAMissizedBlock) {
  // The root at rank 1 expecting one value fewer or one more than rank 3's
  // three is an error naming both ranks and both sizes.
  for (int wrong : {2, 4}) {
    Engine eng = make_engine(4);
    try {
      eng.run([&](Context& ctx) -> Task<> {
        const std::vector<double> mine(3, 1.0);
        std::vector<int> counts(4, 3);
        counts[3] = wrong;
        co_await coll::gatherv<double>(ctx, ctx.world(), mine, counts, 1);
      });
      ADD_FAILURE() << wrong << " values expected, 3 sent: no error";
    } catch (const SimError& e) {
      expect_names_block(e.what(), 3, 1, 3, wrong);
    }
  }
}

TEST(Coll, ScattervRejectsAMissizedBlock) {
  // Rank 3 expecting one value fewer or one more than the three the root at
  // rank 1 sends it is an error naming both ranks and both sizes.
  for (int wrong : {2, 4}) {
    Engine eng = make_engine(4);
    try {
      eng.run([&](Context& ctx) -> Task<> {
        const std::vector<double> send(4 * 3, 1.0);
        const std::vector<int> counts(4, 3);
        co_await coll::scatterv<double>(ctx, ctx.world(), send, counts,
                                        ctx.rank() == 3 ? wrong : 3, 1);
      });
      ADD_FAILURE() << wrong << " values expected, 3 sent: no error";
    } catch (const SimError& e) {
      expect_names_block(e.what(), 1, 3, 3, wrong);
    }
  }
  // The root's own block is copied, not sent, so scatterv checks it itself.
  Engine eng = make_engine(4);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 const std::vector<double> send(4 * 3, 1.0);
                 const std::vector<int> counts(4, 3);
                 co_await coll::scatterv<double>(
                     ctx, ctx.world(), send, counts,
                     ctx.rank() == 1 ? 2 : 3, 1);
               }),
               SimError);
}

TEST(Coll, CommSplitFormsOrderedGroups) {
  Engine eng = make_engine(12);
  eng.run([&](Context& ctx) -> Task<> {
    const int color = ctx.rank() % 3;
    Comm sub = co_await coll::comm_split(ctx, ctx.world(), color,
                                         -ctx.rank() /*reverse order*/);
    EXPECT_EQ(sub.size(), 4);
    // key = -rank sorts members in descending world rank.
    for (int i = 0; i + 1 < sub.size(); ++i)
      EXPECT_GT(sub.global(i), sub.global(i + 1));
    EXPECT_EQ(sub.global(sub.rank()), ctx.rank());
  });
}

TEST(Coll, SplitColorsBeyond24BitsStayDistinct) {
  // Colors 0 and 2^24 differ only above bit 23: each rank still gets a
  // singleton communicator of its own.
  Engine eng = make_engine(2);
  std::uint32_t ids[2] = {};
  eng.run([&](Context& ctx) -> Task<> {
    const int color = ctx.rank() == 0 ? 0 : 1 << 24;
    Comm sub = co_await coll::comm_split(ctx, ctx.world(), color, 0);
    EXPECT_EQ(sub.size(), 1);
    EXPECT_EQ(sub.global(0), ctx.rank());
    ids[ctx.rank()] = sub.id();
  });
  EXPECT_NE(ids[0], ids[1]);
}

namespace {
/// Split `depth` times, each split of the previous result, recording every
/// new context id.  A named coroutine: the same loop written as a
/// coroutine lambda crashed under g++ 12 -O2 (docs/COROUTINE_PITFALLS.md).
Task<> nested_splits(Context& ctx, int depth,
                     std::vector<std::uint32_t>& ids) {
  Comm c = ctx.world();
  for (int i = 0; i < depth; ++i) {
    Comm next = co_await coll::comm_split(ctx, c, 0, 0);
    ids.push_back(next.id());
    c = next;
  }
}
}  // namespace

TEST(Coll, NestedSplitsPastSixteenBitContextsStayDistinct) {
  // The 65 537th split has parent context 2^16: every split must still
  // yield a communicator no other live one shares.
  constexpr int kDepth = (1 << 16) + 1;
  Engine eng = make_engine(2);
  std::vector<std::uint32_t> ids[2];
  eng.run([&](Context& ctx) -> Task<> {
    return nested_splits(ctx, kDepth, ids[ctx.rank()]);
  });
  EXPECT_EQ(ids[0], ids[1]);
  std::vector<std::uint32_t> distinct = ids[0];
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(distinct.size(), static_cast<std::size_t>(kDepth));
}

TEST(Coll, SplitByRegionGroupsRegionRanks) {
  Engine eng(Machine({.num_nodes = 3, .regions_per_node = 2,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    Comm region = co_await coll::split_by_region(ctx, ctx.world());
    EXPECT_EQ(region.size(), 4);
    const auto& m = ctx.engine().machine();
    for (int i = 0; i < region.size(); ++i)
      EXPECT_EQ(m.region_of(region.global(i)), m.region_of(ctx.rank()));
    // Local rank order matches core order.
    EXPECT_EQ(region.rank(), m.core_of(ctx.rank()));
  });
}

TEST(Coll, SubCommunicatorCollectivesWork) {
  Engine eng = make_engine(16);
  eng.run([&](Context& ctx) -> Task<> {
    Comm region = co_await coll::split_by_region(ctx, ctx.world());
    long sum = co_await coll::allreduce<long>(
        ctx, region, static_cast<long>(ctx.rank()),
        [](long a, long b) { return a + b; });
    long expected = 0;
    for (int i = 0; i < region.size(); ++i) expected += region.global(i);
    EXPECT_EQ(sum, expected);
  });
}

TEST(Coll, BarrierSynchronizesClocks) {
  // After a barrier, no rank's clock may precede the latest entrant.
  Engine eng = make_engine(8);
  eng.run([&](Context& ctx) -> Task<> {
    ctx.compute(ctx.rank() == 3 ? 2.0 : 0.0);
    co_await coll::barrier(ctx, ctx.world());
    EXPECT_GE(ctx.now(), 2.0);
    co_return;
  });
}

TEST(Coll, ConcurrentCollectivesOnDifferentComms) {
  // Region comms run allreduce "concurrently"; tags/ctx ids must not clash.
  Engine eng(Machine({.num_nodes = 4, .regions_per_node = 1,
                      .ranks_per_region = 4}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    Comm region = co_await coll::split_by_region(ctx, ctx.world());
    const auto& m = ctx.engine().machine();
    long v = co_await coll::allreduce<long>(
        ctx, region, 1L, [](long a, long b) { return a + b; });
    EXPECT_EQ(v, 4);
    long w = co_await coll::allreduce<long>(
        ctx, ctx.world(), static_cast<long>(m.region_of(ctx.rank())),
        [](long a, long b) { return a + b; });
    EXPECT_EQ(w, (0 + 1 + 2 + 3) * 4);
  });
}
