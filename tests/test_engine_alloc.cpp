/// \file test_engine_alloc.cpp
/// \brief Allocation-regression suite for the engine hot path.
///
/// The contract (docs/ARCHITECTURE.md, "Memory management in the engine"):
/// once warmed, steady-state engine phases perform **zero heap
/// allocations** — payload bytes live in per-rank bump arenas, mailboxes
/// are flat interned tables, coroutine frames come from the frame pool,
/// and every per-phase vector retains its capacity.
///
/// Proof technique: a global `operator new` hook counts every allocation
/// (util/alloc_hook.hpp — this TU owns the definition for the binary).
/// The same warmed engine runs the same traffic pattern with 4 and with 64
/// iterations; if any allocation were per-phase or per-message, the longer
/// run would count more.  Equality pins the whole steady state to zero
/// heap traffic, without having to whitelist per-run scaffolding (task
/// vectors, pool bookkeeping) that is independent of iteration count.

#include "util/alloc_hook.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "mpix/alltoall.hpp"
#include "mpix/reliable.hpp"
#include "simmpi/coll.hpp"
#include "simmpi/dist_graph.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/fault.hpp"

using namespace simmpi;

namespace {

Machine test_machine() {
  return Machine({.num_nodes = 2, .regions_per_node = 2, .ranks_per_region = 4});
}

/// Representative steady traffic: persistent-style ring exchange with a
/// fixed tag (the shape of every halo-exchange Start+Wait), mixed payload
/// sizes crossing region/node/network tiers, completed with wait_all so a
/// pooled coroutine frame is created and destroyed every iteration.
Task<> ring_traffic(Context& ctx, int iters) {
  const int p = ctx.world().size();
  const int r = ctx.rank();
  std::vector<double> out(64 + 32 * (r % 3), r + 0.5);
  std::vector<double> in(64 + 32 * (((r - 1 + p) % p) % 3));
  std::vector<double> out2(16, r + 0.25);
  std::vector<double> in2(16);
  for (int it = 0; it < iters; ++it) {
    Request reqs[4] = {
        Request::send(ctx.world(),
                      std::as_bytes(std::span<const double>(out)), (r + 1) % p,
                      7),
        Request::recv(ctx.world(), std::as_writable_bytes(std::span<double>(in)),
                      (r - 1 + p) % p, 7),
        Request::send(ctx.world(),
                      std::as_bytes(std::span<const double>(out2)),
                      (r + p / 2) % p, 8),
        Request::recv(ctx.world(),
                      std::as_writable_bytes(std::span<double>(in2)),
                      (r + p / 2) % p, 8),
    };
    for (auto& q : reqs) q.start(ctx);
    co_await ctx.wait_all(std::span<Request>(reqs));
  }
}

std::uint64_t allocs_during(Engine& eng, int iters) {
  const std::uint64_t before = util::alloc_hook_count();
  eng.run([&](Context& ctx) -> Task<> { return ring_traffic(ctx, iters); });
  return util::alloc_hook_count() - before;
}

TEST(EngineAlloc, SteadyStatePhasesAllocationFreeWidth1) {
  Engine eng(test_machine(), CostParams::lassen(), Engine::Options{.threads = 1});
  // Warm-up at full length: arenas reach their peak chunk population,
  // channels intern, journals/frames size up.
  allocs_during(eng, 64);

  const std::uint64_t a4 = allocs_during(eng, 4);
  const std::uint64_t a64 = allocs_during(eng, 64);
  // 60 extra iterations × 16 ranks × 4 requests — any per-phase or
  // per-message allocation would separate these counts.
  EXPECT_EQ(a64, a4) << "steady-state phases allocated on the heap";
  // Deterministic: the warmed run has a fixed (per-run-scaffolding) count.
  EXPECT_EQ(allocs_during(eng, 64), a64);
}

TEST(EngineAlloc, ArenaAndFramePoolStableAcrossWarmRuns) {
  Engine eng(test_machine(), CostParams::lassen(), Engine::Options{.threads = 1});
  allocs_during(eng, 64);
  const auto arena_warm = eng.arena_stats();
  const auto frame_mallocs = util::frame_pool_mallocs();
  const auto slots = eng.channel_slots(0);
  allocs_during(eng, 8);
  allocs_during(eng, 64);
  const auto arena_after = eng.arena_stats();
  EXPECT_EQ(arena_after.chunks, arena_warm.chunks)
      << "arena grew after warm-up";
  EXPECT_GT(arena_after.recycles, arena_warm.recycles)
      << "chunks must recycle";
  EXPECT_EQ(util::frame_pool_mallocs(), frame_mallocs)
      << "frame pool missed after warm-up";
  EXPECT_EQ(eng.channel_count(0), 0u)
      << "drained channels must be erased";
  EXPECT_EQ(eng.channel_slots(0), slots)
      << "mailbox queue population must stay at its high-water mark";
}

TEST(EngineAlloc, SteadyStateBoundedWidth2) {
  // At width > 1 frame blocks drift between worker caches, so a handful of
  // reservoir refills (not mallocs) and per-run thread spawns are allowed;
  // what must not happen is per-message heap traffic.
  Engine eng(test_machine(), CostParams::lassen(), Engine::Options{.threads = 2});
  allocs_during(eng, 64);
  const std::uint64_t a4 = allocs_during(eng, 4);
  const std::uint64_t a64 = allocs_during(eng, 64);
  const std::uint64_t extra_msgs = 60ull * 16 * 2;  // sends of 60 extra iters
  EXPECT_LT(a64 - std::min(a64, a4), extra_msgs / 10)
      << "allocation count scales with message count";
}

TEST(EngineAlloc, OversizedPayloadSpillsAndRecycles) {
  // Payloads larger than an arena chunk take the spill path; the spill
  // chunk must be recycled across epochs instead of re-allocated.
  Engine eng(test_machine(), CostParams::lassen(), Engine::Options{.threads = 1});
  constexpr std::size_t kBig = 3 * 64 * 1024 / sizeof(double);
  auto program = [&](Context& ctx) -> Task<> {
    const int p = ctx.world().size();
    const int r = ctx.rank();
    std::vector<double> out(kBig, r + 1.0);
    std::vector<double> in(kBig);
    for (int it = 0; it < 6; ++it) {
      auto s = Request::send(ctx.world(),
                             std::as_bytes(std::span<const double>(out)),
                             (r + 1) % p, 3);
      auto rr = Request::recv(ctx.world(),
                              std::as_writable_bytes(std::span<double>(in)),
                              (r - 1 + p) % p, 3);
      s.start(ctx);
      rr.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(rr);
      if (in[0] != ((r - 1 + p) % p) + 1.0 || in[kBig - 1] != in[0])
        throw SimError("oversized payload corrupted");
    }
  };
  eng.run(program);
  const auto warm = eng.arena_stats();
  eng.run(program);
  const auto after = eng.arena_stats();
  EXPECT_EQ(after.chunks, warm.chunks) << "spill chunks must be reused";
  EXPECT_GT(after.recycles, warm.recycles);
}

/// The zero-allocation guarantee must survive fault injection and the
/// reliability layer: drops, timed parks, retransmissions and debris
/// draining all run on warmed structures (arena payload copies,
/// interned channels, pooled coroutine frames).  Same proof technique as
/// the fault-free test: iteration count must not move the allocation count
/// of a warmed engine.
TEST(EngineAlloc, FaultedSteadyStateAllocationFree) {
  Engine eng(test_machine(), CostParams::lassen(),
             Engine::Options{.threads = 1});
  eng.set_fault_plan(
      {.seed = 5, .events = {{.kind = FaultSpec::Kind::msg_drop, .rate = 0.2}}});
  const mpix::Reliability rel{.enabled = true, .timeout = 1e-4};

  // Cross-node pairing ((r + p/2) % p spans the node boundary on this
  // machine), so every data message is a drop candidate.
  auto faulted_ring = [&](Context& ctx, int iters) -> Task<> {
    const int p = ctx.world().size();
    const int r = ctx.rank();
    const int peer = (r + p / 2) % p;
    std::vector<double> out(32, r + 0.5);
    std::vector<double> in(32);
    mpix::impl::ChannelSet set(ctx.world(), rel, 8);
    set.send(std::as_bytes(std::span<const double>(out)), peer, 7);
    set.recv(std::as_writable_bytes(std::span<double>(in)), peer, 7);
    for (int it = 0; it < iters; ++it) {
      set.start(ctx);
      co_await set.finish(ctx);
      if (in[0] != peer + 0.5) throw SimError("reliable payload corrupted");
    }
  };
  auto faulted_allocs = [&](int iters) {
    const std::uint64_t before = util::alloc_hook_count();
    eng.run([&](Context& ctx) -> Task<> { return faulted_ring(ctx, iters); });
    return util::alloc_hook_count() - before;
  };

  // Warm-up at the longest length used: the in-flight payload high-water
  // (retransmit copies and their debris) grows with run length, so the
  // arena must see its peak before the measured runs.
  faulted_allocs(128);
  faulted_allocs(128);
  const auto arena_warm = eng.arena_stats();
  const auto frame_warm = util::frame_pool_mallocs();

  const std::uint64_t a64 = faulted_allocs(64);
  const std::uint64_t a128 = faulted_allocs(128);
  // 64 extra iterations × 16 ranks × (data + ack + retransmits) is >2000
  // messages; the counts differ only by a handful of per-run scaffolding
  // allocations (engine-run locals), never per message or per phase.
  const std::uint64_t diff = a128 > a64 ? a128 - a64 : a64 - a128;
  EXPECT_LT(diff, 16u) << "faulted allocation count scales with messages ("
                       << a64 << " vs " << a128 << ")";
  EXPECT_EQ(eng.arena_stats().chunks, arena_warm.chunks)
      << "arena grew after faulted warm-up";
  EXPECT_EQ(util::frame_pool_mallocs(), frame_warm)
      << "frame pool missed after faulted warm-up";
  // The fault machinery must actually have fired during the proof run.
  std::uint64_t drops = 0, retransmits = 0;
  for (int r = 0; r < test_machine().num_ranks(); ++r) {
    drops += eng.stats(r).faults.drops;
    retransmits += eng.stats(r).faults.retransmits;
  }
  EXPECT_GT(drops, 0u);
  EXPECT_GT(retransmits, 0u);
}

/// The aggregated collectives stage every intra-region value through the
/// engine in place (locality s/r phases, Bruck fill/deliver) and keep
/// their persistent buffers and channels across exchanges, so a warmed
/// engine must not allocate per exchange.  Each run builds the collective
/// afresh, so its set-up allocations depend on engine history (every run
/// splits fresh communicators); the count is therefore taken inside the
/// run, between two barriers around the measured exchanges.
enum class Aggregated { locality, locality_dedup, node_aggregated, bruck };

/// Values rank `s` sends rank `d` (deterministic, 1..5).
int pair_count(int s, int d) { return 1 + (3 * s + 5 * d) % 5; }

Task<> aggregated_exchanges(Context& ctx, Aggregated kind, int iters,
                            std::uint64_t& allocs) {
  const Comm& world = ctx.world();
  const int p = world.size();
  const int r = ctx.rank();
  const bool dense =
      kind == Aggregated::node_aggregated || kind == Aggregated::bruck;
  std::vector<int> dsts, srcs;
  if (dense) {
    for (int q = 0; q < p; ++q) dsts.push_back(q);
    srcs = dsts;
  } else {
    for (int k : {1, 4, 9}) {  // distinct mod 16, crossing every tier
      dsts.push_back((r + k) % p);
      srcs.push_back((r - k + p) % p);
    }
  }
  mpix::AlltoallvArgsT<double> args;
  std::vector<double> sendbuf, recvbuf;
  std::vector<mpix::gidx> send_idx, recv_idx;
  // Value k of every segment from s carries gid s * 100 + k, so the dedup
  // method finds duplicates across a region's destinations.
  for (int d : dsts) {
    args.sdispls.push_back(static_cast<int>(sendbuf.size()));
    args.sendcounts.push_back(pair_count(r, d));
    for (int k = 0; k < pair_count(r, d); ++k) {
      send_idx.push_back(r * 100 + k);
      sendbuf.push_back(r * 100 + k + 0.5);
    }
  }
  for (int s : srcs) {
    args.rdispls.push_back(static_cast<int>(recv_idx.size()));
    args.recvcounts.push_back(pair_count(s, r));
    for (int k = 0; k < pair_count(s, r); ++k) recv_idx.push_back(s * 100 + k);
  }
  recvbuf.resize(recv_idx.size());
  args.sendbuf = sendbuf;
  args.recvbuf = recvbuf;
  args.send_idx = send_idx;
  args.recv_idx = recv_idx;
  std::unique_ptr<mpix::NeighborAlltoallv> coll;
  if (dense) {
    const auto method = kind == Aggregated::bruck
                            ? mpix::AlltoallMethod::bruck
                            : mpix::AlltoallMethod::node_aggregated;
    coll = co_await mpix::alltoallv_init(ctx, world, args, method);
  } else {
    const auto method = kind == Aggregated::locality_dedup
                            ? mpix::Method::locality_dedup
                            : mpix::Method::locality;
    const DistGraph graph = co_await dist_graph_create_adjacent(
        ctx, world, srcs, dsts, GraphAlgo::handshake);
    coll = co_await mpix::neighbor_alltoallv_init(ctx, graph, args, method);
  }
  co_await coll->start(ctx);  // first exchange: channels intern
  co_await coll->wait(ctx);
  co_await coll::barrier(ctx, world);
  if (r == 0) allocs = util::alloc_hook_count();
  for (int it = 0; it < iters; ++it) {
    co_await coll->start(ctx);
    co_await coll->wait(ctx);
    for (std::size_t k = 0; k < recvbuf.size(); ++k)
      if (recvbuf[k] != recv_idx[k] + 0.5)
        throw SimError("aggregated exchange delivered a wrong value");
  }
  co_await coll::barrier(ctx, world);
  if (r == 0) allocs = util::alloc_hook_count() - allocs;
}

TEST(EngineAlloc, AggregatedCollectivesAllocationFreeWidth1) {
  for (const Aggregated kind :
       {Aggregated::locality, Aggregated::locality_dedup,
        Aggregated::node_aggregated, Aggregated::bruck}) {
    Engine eng(test_machine(), CostParams::lassen(),
               Engine::Options{.threads = 1});
    auto allocs = [&](int iters) {
      std::uint64_t n = 0;
      eng.run([&](Context& ctx) -> Task<> {
        return aggregated_exchanges(ctx, kind, iters, n);
      });
      return n;
    };
    allocs(64);
    const auto arena_warm = eng.arena_stats();
    const auto frame_warm = util::frame_pool_mallocs();
    const std::uint64_t a4 = allocs(4);
    const std::uint64_t a64 = allocs(64);
    const int k = static_cast<int>(kind);
    EXPECT_EQ(a64, a4) << "collective " << k
                       << " allocated per exchange in steady state";
    EXPECT_EQ(a4, 0u) << "collective " << k;
    EXPECT_EQ(eng.arena_stats().chunks, arena_warm.chunks)
        << "collective " << k << ": arena grew after warm-up";
    EXPECT_EQ(util::frame_pool_mallocs(), frame_warm)
        << "collective " << k << ": frame pool missed after warm-up";
  }
}

TEST(EngineAlloc, ZeroByteMessagesNeverTouchTheArena) {
  Engine eng(test_machine(), CostParams::lassen(), Engine::Options{.threads = 1});
  eng.run([](Context& ctx) -> Task<> {
    for (int i = 0; i < 8; ++i) co_await coll::barrier(ctx, ctx.world());
  });
  EXPECT_EQ(eng.arena_stats().allocs, 0u);
  EXPECT_EQ(eng.arena_stats().chunks, 0u);
}

Task<> barrier_churn(Context& ctx, int barriers) {
  for (int k = 0; k < barriers; ++k) co_await coll::barrier(ctx, ctx.world());
}

/// Every barrier mints fresh collective tags, so each of its messages
/// interns a channel that did not exist before.  Erase-on-drain must keep
/// the mailbox at the in-flight channel count under this churn, and a
/// warmed engine must not allocate per barrier.
TEST(EngineAlloc, CollectiveTagChurnAllocationFree) {
  Engine eng(test_machine(), CostParams::lassen(), Engine::Options{.threads = 1});
  auto allocs = [&](int barriers) {
    const std::uint64_t before = util::alloc_hook_count();
    eng.run([&](Context& ctx) -> Task<> {
      return barrier_churn(ctx, barriers);
    });
    return util::alloc_hook_count() - before;
  };
  allocs(64);
  const auto slots = eng.channel_slots(0);
  const auto frame_mallocs = util::frame_pool_mallocs();
  const std::uint64_t a4 = allocs(4);
  const std::uint64_t a64 = allocs(64);
  EXPECT_EQ(a64, a4) << "fresh collective tags allocated per barrier";
  EXPECT_EQ(eng.channel_count(0), 0u) << "drained channels must be erased";
  EXPECT_EQ(eng.channel_slots(0), slots)
      << "mailbox grew with the number of tags minted";
  EXPECT_EQ(util::frame_pool_mallocs(), frame_mallocs)
      << "frame pool missed after warm-up";
}

}  // namespace
