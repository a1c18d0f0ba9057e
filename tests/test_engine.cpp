/// \file test_engine.cpp
/// \brief Engine scheduling, p2p semantics, virtual clocks, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "simmpi/engine.hpp"

using namespace simmpi;

namespace {

Engine make_engine(int nodes, int rpn, CostParams p = CostParams::lassen()) {
  return Engine(
      Machine({.num_nodes = nodes, .regions_per_node = 1,
               .ranks_per_region = rpn}),
      p);
}

template <class T>
std::span<const std::byte> bytes_of(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v.data(), v.size()));
}
template <class T>
std::span<std::byte> writable_bytes_of(std::vector<T>& v) {
  return std::as_writable_bytes(std::span<T>(v.data(), v.size()));
}

}  // namespace

TEST(Engine, PingPongDeliversPayload) {
  Engine eng = make_engine(2, 1);
  std::vector<double> got(3, 0.0);
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      std::vector<double> data{1.5, -2.0, 3.25};
      auto s = Request::send(ctx.world(), bytes_of(data), 1, 7);
      s.start(ctx);
      co_await ctx.wait(s);
    } else {
      auto r = Request::recv(ctx.world(), writable_bytes_of(got), 0, 7);
      r.start(ctx);
      co_await ctx.wait(r);
      EXPECT_EQ(r.received_bytes(), 3 * sizeof(double));
    }
  });
  EXPECT_DOUBLE_EQ(got[0], 1.5);
  EXPECT_DOUBLE_EQ(got[1], -2.0);
  EXPECT_DOUBLE_EQ(got[2], 3.25);
}

TEST(Engine, RecvBeforeSendParksAndWakes) {
  // Rank 1 waits before rank 0 sends: the scheduler must park rank 1 and
  // wake it when the message is posted.
  Engine eng = make_engine(2, 1);
  int value = 0;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 1) {
      auto r = Request::recv(
          ctx.world(),
          std::as_writable_bytes(std::span<int>(&value, 1)), 0, 0);
      r.start(ctx);
      co_await ctx.wait(r);
    } else {
      ctx.compute(1.0);  // rank 0 is "slow"
      int v = 42;
      auto s = Request::send(ctx.world(),
                             std::as_bytes(std::span<const int>(&v, 1)), 1, 0);
      s.start(ctx);
      co_await ctx.wait(s);
    }
  });
  EXPECT_EQ(value, 42);
  // Receiver clock must reflect the sender's late departure.
  EXPECT_GE(eng.clock(1), 1.0);
}

TEST(Engine, FifoOrderingPerChannel) {
  Engine eng = make_engine(2, 1);
  std::vector<int> got;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        int v = i * 10;
        auto s = Request::send(
            ctx.world(), std::as_bytes(std::span<const int>(&v, 1)), 1, 3);
        s.start(ctx);
        co_await ctx.wait(s);
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        int v = -1;
        auto r = Request::recv(
            ctx.world(), std::as_writable_bytes(std::span<int>(&v, 1)), 0, 3);
        r.start(ctx);
        co_await ctx.wait(r);
        got.push_back(v);
      }
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(Engine, TagsIsolateChannels) {
  Engine eng = make_engine(2, 1);
  int a = 0, b = 0;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      int x = 1, y = 2;
      auto s1 = Request::send(ctx.world(),
                              std::as_bytes(std::span<const int>(&x, 1)), 1, 5);
      auto s2 = Request::send(ctx.world(),
                              std::as_bytes(std::span<const int>(&y, 1)), 1, 6);
      s1.start(ctx);
      s2.start(ctx);
      co_await ctx.wait(s1);
      co_await ctx.wait(s2);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      auto r2 = Request::recv(ctx.world(),
                              std::as_writable_bytes(std::span<int>(&b, 1)), 0,
                              6);
      r2.start(ctx);
      co_await ctx.wait(r2);
      auto r1 = Request::recv(ctx.world(),
                              std::as_writable_bytes(std::span<int>(&a, 1)), 0,
                              5);
      r1.start(ctx);
      co_await ctx.wait(r1);
    }
  });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Engine, PersistentRequestRestart) {
  Engine eng = make_engine(2, 1);
  std::vector<int> got;
  eng.run([&](Context& ctx) -> Task<> {
    int buf = 0;
    if (ctx.rank() == 0) {
      auto s = Request::send(ctx.world(),
                             std::as_bytes(std::span<const int>(&buf, 1)), 1,
                             0);
      for (int i = 0; i < 4; ++i) {
        buf = i;  // persistent requests re-read the registered buffer
        s.start(ctx);
        co_await ctx.wait(s);
      }
    } else {
      auto r = Request::recv(ctx.world(),
                             std::as_writable_bytes(std::span<int>(&buf, 1)),
                             0, 0);
      for (int i = 0; i < 4; ++i) {
        r.start(ctx);
        co_await ctx.wait(r);
        got.push_back(buf);
      }
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Engine, StartOnActiveRequestThrows) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        if (ctx.rank() == 1) {
          auto r = Request::recv(ctx.world(), {}, 0, 0);
          r.start(ctx);
          r.start(ctx);  // error: already active
        } else {
          auto s = Request::send(ctx.world(), {}, 1, 0);
          s.start(ctx);
          co_await ctx.wait(s);
        }
        co_return;
      }),
      SimError);
}

TEST(Engine, DeadlockIsDetected) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 // Both ranks wait for a message nobody sends.
                 auto r = Request::recv(ctx.world(), {}, 1 - ctx.rank(), 9);
                 r.start(ctx);
                 co_await ctx.wait(r);
               }),
               SimError);
}

TEST(Engine, UnreceivedMessageIsAnError) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 if (ctx.rank() == 0) {
                   auto s = Request::send(ctx.world(), {}, 1, 0);
                   s.start(ctx);
                   co_await ctx.wait(s);
                 }
                 co_return;
               }),
               SimError);
}

TEST(Engine, TruncationIsAnError) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(
      eng.run([&](Context& ctx) -> Task<> {
        if (ctx.rank() == 0) {
          std::vector<int> data{1, 2, 3, 4};
          auto s = Request::send(ctx.world(), bytes_of(data), 1, 0);
          s.start(ctx);
          co_await ctx.wait(s);
        } else {
          std::vector<int> small(1);
          auto r =
              Request::recv(ctx.world(), writable_bytes_of(small), 0, 0);
          r.start(ctx);
          co_await ctx.wait(r);
        }
      }),
      SimError);
}

TEST(Engine, RankExceptionPropagates) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([&](Context& ctx) -> Task<> {
                 if (ctx.rank() == 0)
                   throw std::runtime_error("rank failure");
                 co_return;
               }),
               std::runtime_error);
}

TEST(Engine, ClockAdvancesWithComputeAndMessages) {
  Engine eng = make_engine(2, 1);
  eng.run([&](Context& ctx) -> Task<> {
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    ctx.compute(0.5);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.5);
    co_return;
  });
}

TEST(Engine, NetworkMessageSlowerThanRegionMessage) {
  // Same payload: network delivery must complete later than intra-region.
  auto elapsed = [](int nodes, int rpn) {
    Engine eng(Machine({.num_nodes = nodes, .regions_per_node = 1,
                        .ranks_per_region = rpn}),
               CostParams::lassen());
    eng.run([&](Context& ctx) -> Task<> {
      std::vector<double> buf(512);
      if (ctx.rank() == 0) {
        auto s = Request::send(
            ctx.world(),
            std::as_bytes(std::span<const double>(buf.data(), buf.size())), 1,
            0);
        s.start(ctx);
        co_await ctx.wait(s);
      } else if (ctx.rank() == 1) {
        auto r = Request::recv(
            ctx.world(),
            std::as_writable_bytes(std::span<double>(buf.data(), buf.size())),
            0, 0);
        r.start(ctx);
        co_await ctx.wait(r);
      }
      co_return;
    });
    return eng.clock(1);
  };
  const double intra = elapsed(1, 2);    // ranks 0,1 same region
  const double inter = elapsed(2, 1);    // ranks 0,1 different nodes
  EXPECT_LT(intra, inter);
}

TEST(Engine, InjectionCapSerializesSimultaneousSenders) {
  // 8 ranks on one node each send a large message to a different node.
  // With the cap, the last arrival is later than without.
  auto last_clock = [](bool cap) {
    CostParams p = CostParams::lassen();
    p.use_injection_cap = cap;
    Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                        .ranks_per_region = 8}),
               p);
    eng.run([&](Context& ctx) -> Task<> {
      const int half = 8;
      std::vector<double> buf(1 << 14);
      if (ctx.rank() < half) {
        auto s = Request::send(
            ctx.world(),
            std::as_bytes(std::span<const double>(buf.data(), buf.size())),
            ctx.rank() + half, 0);
        s.start(ctx);
        co_await ctx.wait(s);
      } else {
        auto r = Request::recv(
            ctx.world(),
            std::as_writable_bytes(std::span<double>(buf.data(), buf.size())),
            ctx.rank() - half, 0);
        r.start(ctx);
        co_await ctx.wait(r);
      }
    });
    return eng.max_clock();
  };
  EXPECT_GT(last_clock(true), last_clock(false));
}

TEST(Engine, StatsCountMessagesPerTier) {
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 1,
                      .ranks_per_region = 2}),
             CostParams::lassen());
  eng.run([&](Context& ctx) -> Task<> {
    // rank 0 sends to rank 1 (region) and rank 2 (network).
    if (ctx.rank() == 0) {
      std::vector<Request> reqs;
      reqs.push_back(Request::send(ctx.world(), {}, 1, 0));
      reqs.push_back(Request::send(ctx.world(), {}, 2, 0));
      for (auto& r : reqs) r.start(ctx);
      co_await ctx.wait_all(std::span<Request>(reqs));
    } else if (ctx.rank() <= 2) {
      auto r = Request::recv(ctx.world(), {}, 0, 0);
      r.start(ctx);
      co_await ctx.wait(r);
    }
  });
  const auto& s = eng.stats(0);
  EXPECT_EQ(s.tier[static_cast<int>(Locality::region)].msgs, 1u);
  EXPECT_EQ(s.tier[static_cast<int>(Locality::network)].msgs, 1u);
  EXPECT_EQ(s.total_msgs(), 2u);
  EXPECT_EQ(eng.max_msgs({Locality::region, Locality::network}), 2u);
}

TEST(Engine, DeterministicClocksAcrossRuns) {
  auto once = [] {
    Engine eng = make_engine(4, 4);
    eng.run([&](Context& ctx) -> Task<> {
      const int p = ctx.world().size();
      std::vector<double> v(64, ctx.rank());
      std::vector<double> in(64);
      const int dst = (ctx.rank() + 5) % p;
      const int src = (ctx.rank() - 5 + p) % p;
      auto s = Request::send(
          ctx.world(),
          std::as_bytes(std::span<const double>(v.data(), v.size())), dst, 1);
      auto r = Request::recv(
          ctx.world(),
          std::as_writable_bytes(std::span<double>(in.data(), in.size())), src,
          1);
      s.start(ctx);
      r.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(r);
      EXPECT_DOUBLE_EQ(in[0], src);
    });
    std::vector<double> clocks;
    for (int r = 0; r < eng.machine().num_ranks(); ++r)
      clocks.push_back(eng.clock(r));
    return clocks;
  };
  EXPECT_EQ(once(), once());
}

TEST(Engine, DynamicRecvCapturesPayload) {
  Engine eng = make_engine(2, 1);
  std::vector<int> got;
  eng.run([&](Context& ctx) -> Task<> {
    if (ctx.rank() == 0) {
      std::vector<int> data{7, 8, 9};
      auto s = Request::send(ctx.world(), bytes_of(data), 1, 0);
      s.start(ctx);
      co_await ctx.wait(s);
    } else {
      auto r = Request::recv_dyn(ctx.world(), 0, 0);
      r.start(ctx);
      co_await ctx.wait(r);
      auto payload = r.take_payload();
      got.resize(payload.size() / sizeof(int));
      std::memcpy(got.data(), payload.data(), payload.size());
    }
  });
  EXPECT_EQ(got, (std::vector<int>{7, 8, 9}));
}

TEST(Engine, SyncResetIsolatesMeasurementSections) {
  // Regression: heavy pre-reset network traffic (and the zero-byte barrier
  // messages of sync_reset itself, sent by ranks whose clocks are not yet
  // reset) must not leak into post-reset arrival times through the NIC
  // injection queue.
  Engine eng = make_engine(4, 4);
  std::vector<double> elapsed(16, 0.0);
  eng.run([&](Context& ctx) -> Task<> {
    const int p = ctx.world().size();
    std::vector<double> big(1 << 15);
    const int peer = (ctx.rank() + 5) % p;
    const int from = (ctx.rank() - 5 + p) % p;
    // Phase 1: heavy traffic, clocks end up ~milliseconds apart.
    auto s = Request::send(
        ctx.world(),
        std::as_bytes(std::span<const double>(big.data(), big.size())), peer,
        1);
    auto r = Request::recv(
        ctx.world(),
        std::as_writable_bytes(std::span<double>(big.data(), big.size())),
        from, 1);
    s.start(ctx);
    r.start(ctx);
    co_await ctx.wait(s);
    co_await ctx.wait(r);
    co_await ctx.engine().sync_reset(ctx);
    // Phase 2: a small exchange must now be microseconds, not inherit the
    // pre-reset queue state.
    std::vector<double> small(8);
    auto s2 = Request::send(
        ctx.world(),
        std::as_bytes(std::span<const double>(small.data(), small.size())),
        peer, 2);
    auto r2 = Request::recv(
        ctx.world(),
        std::as_writable_bytes(std::span<double>(small.data(), small.size())),
        from, 2);
    s2.start(ctx);
    r2.start(ctx);
    co_await ctx.wait(s2);
    co_await ctx.wait(r2);
    elapsed[ctx.rank()] = ctx.now();
    co_return;
  });
  for (double t : elapsed) {
    EXPECT_GT(t, 0.0);
    EXPECT_LT(t, 5e-5) << "stale NIC/clock state leaked across sync_reset";
  }
}

TEST(Engine, BackToBackSyncResetsKeepDrainingQueues) {
  // Regression: the last rank to leave one sync_reset can pass the next one
  // in the same engine phase.  Both leaves must count toward their
  // generations, or the generation counter desyncs and NIC/link queues are
  // never drained again — each window then inherits the previous window's
  // 64 KiB backlog.  Queue search is zeroed: its cost depends on which
  // unrelated messages (the next window's ping, barrier traffic) happen to
  // be pending at a match, which would blur the exact comparison.
  CostParams cost = CostParams::lassen();
  cost.queue_search = 0.0;
  Engine eng(Machine({.num_nodes = 4, .regions_per_node = 1,
                      .ranks_per_region = 1}),
             cost, {.threads = 1});
  constexpr int kWindows = 6;
  std::vector<double> clocks(kWindows * 4, 0.0);
  eng.run([&](Context& ctx) -> Task<> {
    const int p = ctx.world().size();
    const int r = ctx.rank();
    std::vector<std::byte> ping(8), pong(8), out(64 * 1024), in(64 * 1024);
    for (int w = 0; w < kWindows; ++w) {
      if (r == 0 || r == 2) {
        auto s = Request::send(ctx.world(), ping, 2 - r, 1);
        auto rr = Request::recv(ctx.world(), pong, 2 - r, 1);
        if (r == 0) {
          s.start(ctx);
          co_await ctx.wait(s);
          rr.start(ctx);
          co_await ctx.wait(rr);
        } else {
          rr.start(ctx);
          co_await ctx.wait(rr);
          s.start(ctx);
          co_await ctx.wait(s);
        }
      }
      co_await ctx.engine().sync_reset(ctx);
      co_await ctx.engine().sync_reset(ctx);
      auto s = Request::send(ctx.world(), out, (r + 1) % p, 2);
      auto rr = Request::recv(ctx.world(), in, (r + p - 1) % p, 2);
      s.start(ctx);
      rr.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(rr);
      clocks[w * 4 + r] = ctx.now();
    }
  });
  auto window_max = [&](int w) {
    return *std::max_element(clocks.begin() + w * 4,
                             clocks.begin() + (w + 1) * 4);
  };
  EXPECT_GT(window_max(0), 0.0);
  for (int w = 1; w < kWindows; ++w)
    EXPECT_EQ(window_max(w), window_max(0)) << "window " << w;
}

TEST(Engine, SyncResetZerosClocksAndStats) {
  Engine eng = make_engine(2, 2);
  eng.run([&](Context& ctx) -> Task<> {
    ctx.compute(1.0 + ctx.rank());
    co_await ctx.engine().sync_reset(ctx);
    EXPECT_DOUBLE_EQ(ctx.now(), 0.0);
    co_return;
  });
  for (int r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(eng.clock(r), 0.0);
    EXPECT_EQ(eng.stats(r).total_msgs(), 0u);
  }
}

// ---- in-place sends and receives ------------------------------------------

namespace {

/// One in-place message of `sent` bytes into a receive declaring 44000 B
/// (caught by the receiver), then a 40000 B message that fits the sender's
/// only arena chunk only if the rejected message released it.
Task<> mismatched_then_reuse(Context& ctx, std::size_t sent,
                             std::string& what) {
  constexpr std::size_t kDeclared = 44000, kNext = 40000;
  if (ctx.rank() == 0) {
    auto s = Request::send_in_place(ctx.world(), sent, 1, 5);
    std::memset(s.start_in_place(ctx).data(), 1, sent);
    co_await ctx.wait(s);
    auto ack = Request::recv(ctx.world(), {}, 1, 6);
    ack.start(ctx);
    co_await ctx.wait(ack);
    auto next = Request::send_in_place(ctx.world(), kNext, 1, 7);
    std::memset(next.start_in_place(ctx).data(), 2, kNext);
    co_await ctx.wait(next);
  } else {
    auto r = Request::recv_in_place(ctx.world(), kDeclared, 0, 5);
    r.start(ctx);
    const auto unreachable = [](std::span<const std::byte>) {
      ADD_FAILURE() << "a mismatched message reached the consumer";
    };
    try {
      co_await ctx.wait_in_place(r, unreachable);
    } catch (const SimError& e) {
      what = e.what();
    }
    auto ack = Request::send(ctx.world(), {}, 0, 6);
    ack.start(ctx);
    co_await ctx.wait(ack);
    auto next = Request::recv_in_place(ctx.world(), kNext, 0, 7);
    next.start(ctx);
    std::size_t got = 0;
    const auto count_twos = [&](std::span<const std::byte> b) {
      got = static_cast<std::size_t>(
          std::count(b.begin(), b.end(), std::byte{2}));
    };
    co_await ctx.wait_in_place(next, count_twos);
    EXPECT_EQ(got, kNext);
  }
}

}  // namespace

TEST(EngineInPlace, SizeMismatchThrowsNamingChannelAndSizes) {
  // A short and a long message: both are rejected, neither is read.
  for (const std::size_t sent : {std::size_t{40000}, std::size_t{48000}}) {
    Engine eng = make_engine(2, 1);
    std::string what;
    auto program = [&](Context& ctx) {
      return mismatched_then_reuse(ctx, sent, what);
    };
    eng.run(program);
    EXPECT_NE(what.find("0->1 tag=5"), std::string::npos) << what;
    EXPECT_NE(what.find("got " + std::to_string(sent) + "B, declared 44000B"),
              std::string::npos)
        << what;
    // The rejected message's chunk went back to the sender's arena: the
    // next payload recycled it instead of growing the arena.
    EXPECT_EQ(eng.arena_stats().chunks, 1u) << "sent " << sent;
    eng.run(program);
    EXPECT_EQ(eng.arena_stats().chunks, 1u) << "follow-up run, sent " << sent;
  }
}

TEST(EngineInPlace, ZeroByteSendNeverTouchesTheArena) {
  Engine eng = make_engine(2, 1);
  int calls = 0;
  std::size_t seen = 1;
  eng.run([&](Context& ctx) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      if (ctx.rank() == 0) {
        auto s = Request::send_in_place(ctx.world(), 0, 1, 3);
        EXPECT_TRUE(s.start_in_place(ctx).empty());
        co_await ctx.wait(s);
      } else {
        auto r = Request::recv_in_place(ctx.world(), 0, 0, 3);
        r.start(ctx);
        const auto note = [&](std::span<const std::byte> b) {
          ++calls;
          seen = b.size();
        };
        co_await ctx.wait_in_place(r, note);
      }
    }
  });
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(seen, 0u);
  EXPECT_EQ(eng.arena_stats().allocs, 0u);
  EXPECT_EQ(eng.arena_stats().chunks, 0u);
}

TEST(EngineInPlace, MisusedRequestsAreRejected) {
  Engine eng = make_engine(2, 1);
  EXPECT_THROW(eng.run([](Context& ctx) -> Task<> {
                 auto s = Request::send_in_place(ctx.world(), 8, 1 - ctx.rank(),
                                                 0);
                 s.start(ctx);  // in-place sends start with start_in_place
                 co_return;
               }),
               SimError);
  EXPECT_THROW(eng.run([](Context& ctx) -> Task<> {
                 std::vector<double> v(1);
                 auto s = Request::send(ctx.world(), bytes_of(v),
                                        1 - ctx.rank(), 0);
                 s.start_in_place(ctx);
                 co_return;
               }),
               SimError);
}

namespace {

/// Delivered bytes, clocks and stats of one traffic pattern, sent copying
/// or in place.
struct TrafficResult {
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<double> clocks;
  std::vector<Engine::RankStats> stats;
};

TrafficResult run_traffic(bool in_place, int threads) {
  // Two nodes x two regions x two ranks: every locality tier, plus sizes
  // from zero bytes to an arena-spilling 80 KiB.
  Engine eng(Machine({.num_nodes = 2, .regions_per_node = 2,
                      .ranks_per_region = 2}),
             CostParams::lassen(), Engine::Options{.threads = threads});
  const int p = eng.machine().num_ranks();
  constexpr int kPeers[] = {1, 2, 5};
  auto size_of = [](int src, int k) -> std::size_t {
    constexpr std::size_t kSizes[] = {0, 24, 4096, 80 * 1024};
    return kSizes[(src + k) % 4];
  };
  TrafficResult res;
  res.got.resize(static_cast<std::size_t>(p));
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    std::vector<std::vector<std::uint8_t>> out(3), in(3);
    std::vector<Request> sends, recvs;
    for (int k = 0; k < 3; ++k) {
      const int dst = (r + kPeers[k]) % p, src = (r - kPeers[k] + p) % p;
      out[k].resize(size_of(r, k));
      for (std::size_t i = 0; i < out[k].size(); ++i)
        out[k][i] = static_cast<std::uint8_t>(r * 31 + k * 7 + i);
      in[k].resize(size_of(src, k));
      if (in_place) {
        sends.push_back(
            Request::send_in_place(ctx.world(), out[k].size(), dst, k));
        recvs.push_back(
            Request::recv_in_place(ctx.world(), in[k].size(), src, k));
      } else {
        sends.push_back(Request::send(ctx.world(), bytes_of(out[k]), dst, k));
        recvs.push_back(
            Request::recv(ctx.world(), writable_bytes_of(in[k]), src, k));
      }
    }
    for (int it = 0; it < 3; ++it) {
      for (int k = 0; k < 3; ++k) {
        if (in_place) {
          const auto bytes = sends[k].start_in_place(ctx);
          if (!bytes.empty())
            std::memcpy(bytes.data(), out[k].data(), bytes.size());
        } else {
          sends[k].start(ctx);
        }
        recvs[k].start(ctx);
      }
      for (int k = 2; k >= 0; --k) {
        if (in_place) {
          const auto copy = [&](std::span<const std::byte> b) {
            if (!b.empty()) std::memcpy(in[k].data(), b.data(), b.size());
          };
          co_await ctx.wait_in_place(recvs[k], copy);
        } else {
          co_await ctx.wait(recvs[k]);
        }
        co_await ctx.wait(sends[k]);
      }
      ctx.compute(1e-6 * (r % 3));
    }
    for (const auto& v : in)
      res.got[r].insert(res.got[r].end(), v.begin(), v.end());
  });
  for (int r = 0; r < p; ++r) {
    res.clocks.push_back(eng.clock(r));
    res.stats.push_back(eng.stats(r));
  }
  return res;
}

}  // namespace

TEST(EngineInPlace, SameScheduleAsCopyingAtWidthsOneAndFour) {
  for (const int threads : {1, 4}) {
    const TrafficResult copying = run_traffic(false, threads);
    const TrafficResult in_place = run_traffic(true, threads);
    EXPECT_EQ(in_place.got, copying.got) << "width " << threads;
    EXPECT_EQ(in_place.clocks, copying.clocks) << "width " << threads;
    EXPECT_TRUE(in_place.stats == copying.stats) << "width " << threads;
  }
  EXPECT_EQ(run_traffic(true, 1).clocks, run_traffic(true, 4).clocks);
}
