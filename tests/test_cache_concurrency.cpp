/// \file test_cache_concurrency.cpp
/// \brief Concurrency battery for the shared pools — the state the
/// ROADMAP's concurrent-sweep batch driver will share across simultaneous
/// simulations.
///
/// Every test here is written to be *raced*: N host threads hammer the
/// process-wide coroutine-frame reservoir (`util::frame_alloc`/`frame_free`
/// with cross-thread block migration), a cross-thread `util::Arena`
/// produce/consume pipeline, and `util::WorkerPool` exception rethrow
/// under contention.  The harness shares no state across ranks (each rank
/// writes only its own result slots), so it has no entry here.  The
/// assertions pin functional correctness; the real
/// teeth are the `-DSANITIZE=thread` CI job, where ThreadSanitizer turns
/// any unsynchronized access these workloads reach into a test failure
/// (see docs/ARCHITECTURE.md, "Thread-safety contract").

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/arena.hpp"
#include "util/worker_pool.hpp"

namespace {

/// Launch `n` threads running `fn(thread_index)` and join them all.
template <class Fn>
void run_threads(int n, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (int t = 0; t < n; ++t) threads.emplace_back(fn, t);
  for (auto& th : threads) th.join();
}

}  // namespace

// ---- coroutine-frame pool / Arena ----------------------------------

// Frame-pool churn across threads: producers allocate and write blocks,
// hand them through a mutex-guarded queue, and consumers free them — so
// blocks migrate between per-thread caches through the process-wide
// reservoir, exactly like coroutine frames surviving the engine's per-run
// worker threads.  The pool must reuse blocks (that is its contract) and
// TSan must see clean handoffs.
TEST(FramePoolConcurrency, CrossThreadChurnReusesBlocks) {
  struct Block {
    void* p;
    std::size_t n;
  };
  std::mutex mu;
  std::deque<Block> queue;
  std::atomic<bool> done{false};
  constexpr int kBlocks = 2000;
  const std::size_t sizes[] = {64, 192, 448, 1024, 4096, 32 * 1024};

  const std::uint64_t reuses_before = util::frame_pool_reuses();

  std::thread consumer([&] {
    for (;;) {
      Block b{nullptr, 0};
      {
        std::lock_guard<std::mutex> lk(mu);
        if (!queue.empty()) {
          b = queue.front();
          queue.pop_front();
        } else if (done.load(std::memory_order_acquire)) {
          return;
        }
      }
      if (b.p) {
        // Read what the producer wrote: a handoff TSan can check.
        EXPECT_EQ(static_cast<unsigned char*>(b.p)[0],
                  static_cast<unsigned char>(b.n & 0xff));
        util::frame_free(b.p, b.n);
      }
    }
  });

  run_threads(3, [&](int t) {
    for (int i = 0; i < kBlocks; ++i) {
      const std::size_t n = sizes[(i + t) % std::size(sizes)];
      void* p = util::frame_alloc(n);
      ASSERT_NE(p, nullptr);
      std::memset(p, static_cast<int>(n & 0xff), 8);
      if (i % 2 == 0) {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back({p, n});
      } else {
        util::frame_free(p, n);  // same-thread fast path interleaved
      }
    }
  });
  done.store(true, std::memory_order_release);
  consumer.join();

  // Churn at this volume must recycle: the whole point of the pool.
  EXPECT_GT(util::frame_pool_reuses(), reuses_before);
}

// Arena produce/consume across threads: one producer bumps its own arena
// (the engine's one-bumper-per-arena contract) while consumer threads read
// the payload bytes and release the blocks from their side.  Once all
// consumers finished, every chunk must be fully released and the arena
// recycles instead of growing.
TEST(ArenaConcurrency, CrossThreadReleaseRecycles) {
  util::Arena arena(4 * 1024);
  struct Item {
    util::Arena::Alloc a;
    std::size_t n;
  };
  std::mutex mu;
  std::deque<Item> queue;
  std::atomic<bool> done{false};
  constexpr int kItems = 4000;

  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      for (;;) {
        Item it{{}, 0};
        {
          std::lock_guard<std::mutex> lk(mu);
          if (!queue.empty()) {
            it = queue.front();
            queue.pop_front();
          } else if (done.load(std::memory_order_acquire)) {
            return;
          }
        }
        if (it.a.data) {
          for (std::size_t k = 0; k < it.n; ++k)
            EXPECT_EQ(it.a.data[k], std::byte{0x5a});
          util::Arena::release(it.a.chunk);
        }
      }
    });
  }

  // Single bumper: sizes cross the chunk boundary and the oversized-spill
  // path, so recycling covers both chunk shapes.  The queue is bounded so
  // the producer cannot outrun the consumers — a stable working set is
  // what makes recycling (rather than growth) the expected behavior.
  for (int i = 0; i < kItems; ++i) {
    const std::size_t n = (i % 7 == 0) ? 8 * 1024 : 256;
    for (;;) {
      bool backlogged;
      {
        std::lock_guard<std::mutex> lk(mu);
        backlogged = queue.size() >= 64;
      }
      if (!backlogged) break;
      std::this_thread::yield();
    }
    util::Arena::Alloc a = arena.allocate(n);
    std::memset(a.data, 0x5a, n);
    std::lock_guard<std::mutex> lk(mu);
    queue.push_back({a, n});
  }
  done.store(true, std::memory_order_release);
  for (auto& t : consumers) t.join();

  EXPECT_TRUE(arena.clean());
  EXPECT_GT(arena.stats().recycles, 0u);
  // The steady working set is a handful of chunks, not thousands.
  EXPECT_LT(arena.stats().chunks, 64u);
}

// ---- WorkerPool -----------------------------------------------------

// Exception rethrow under contention: many chunks, several of which throw
// concurrently.  The pool must (a) run every chunk to completion, (b)
// rethrow exactly the first-in-block-order exception, and (c) stay usable
// for clean runs afterwards — including reuse of the same pool object.
TEST(WorkerPoolConcurrency, ExceptionRethrowUnderContention) {
  util::WorkerPool pool(4);
  constexpr std::size_t kN = 4096;
  constexpr std::size_t kChunk = 16;

  for (int round = 0; round < 10; ++round) {
    std::vector<int> touched(kN, 0);
    const std::size_t first_bad_chunk = 3 + static_cast<std::size_t>(round);
    try {
      pool.run(kN, kChunk, [&](std::size_t b, std::size_t e, int) {
        for (std::size_t i = b; i < e; ++i) touched[i] = 1;
        const std::size_t chunk_idx = b / kChunk;
        if (chunk_idx >= first_bad_chunk && chunk_idx % 7 == 0)
          throw std::runtime_error("chunk " + std::to_string(chunk_idx));
      });
      FAIL() << "expected a rethrow";
    } catch (const std::runtime_error& e) {
      // First throwing chunk in *block order*, independent of which worker
      // ran it or finished last.
      std::size_t expect = first_bad_chunk;
      while (expect % 7 != 0) ++expect;
      EXPECT_EQ(std::string(e.what()), "chunk " + std::to_string(expect));
    }
    // Every chunk ran despite the exceptions.
    for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(touched[i], 1);

    // The pool is clean for the next (non-throwing) invocation.
    std::atomic<long> sum{0};
    pool.run(kN, kChunk, [&](std::size_t b, std::size_t e, int) {
      sum.fetch_add(static_cast<long>(e - b), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), static_cast<long>(kN));
  }
}
