#pragma once
/// \file arena.hpp
/// \brief Steady-state allocation-free memory: refcounted bump arenas and a
/// pooled coroutine-frame allocator.
///
/// Two building blocks keep the engine's innermost loop off the heap
/// (docs/ARCHITECTURE.md, "Memory management in the engine"):
///
///  * `Arena` — a chunked bump allocator with per-chunk reference counts.
///    Allocation is a pointer bump plus a refcount increment; consumers
///    `release()` their block when done.  A chunk whose outstanding count
///    drops to zero is *recycled* — reused for new allocations instead of
///    growing the arena — so a workload with a stable working set stops
///    touching the heap after warm-up, even when it keeps allocating on
///    one side while consuming on the other (the engine's steady
///    send/receive pipeline).  Chunks never move once allocated: pointers
///    handed out stay valid until their chunk is released back to zero.
///    Payloads larger than the chunk size get a dedicated exact-size chunk
///    that is recycled like any other.
///
///  * `frame_alloc`/`frame_free` — a size-bucketed free-list allocator for
///    coroutine frames (wired into `simmpi::Task`'s promise).  Freed
///    frames go to a per-thread cache (no locks on the hot path); caches
///    overflow into — and refill from — a process-wide reservoir, so
///    blocks survive thread exit and repeated `Engine::run()` / solve
///    iterations stop hitting malloc once the first run warmed the pool.
///
/// Threading contract: one thread bumps an `Arena` at a time (the engine
/// gives each simulated rank its own), while `release()` may be called
/// from any thread — the refcount release/acquire pair orders the
/// consumer's last read before the producer's reuse.  The frame pool is
/// safe from any thread by construction (thread-local caches + internally
/// locked reservoir; the reservoir's lists are `GUARDED_BY` its mutex —
/// see util/thread_annotations.hpp).  Neither protocol is expressible as
/// a clang lock annotation on this header's members (`Chunk::live` is a
/// refcount capability, not a mutex), so the dynamic side is pinned by
/// the TSan battery instead: `tests/test_cache_concurrency.cpp` churns
/// cross-thread release and frame-reservoir traffic under
/// `-DSANITIZE=thread`.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace util {

/// Chunked bump allocator with per-chunk refcounted recycling.
class Arena {
 public:
  /// Default size of one chunk.  Oversized requests get their own chunk.
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  /// One backing block.  Opaque to callers: obtained via allocate(),
  /// handed back via release().
  struct Chunk {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
    std::atomic<std::int64_t> live{0};  ///< outstanding allocations
  };

  /// An allocation: the bytes plus the chunk to release() them to.
  struct Alloc {
    std::byte* data = nullptr;
    Chunk* chunk = nullptr;
  };

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes ? chunk_bytes : kDefaultChunkBytes) {}

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `n` bytes (positive, 8-byte aligned).  Recycles a fully
  /// released chunk when the current one is exhausted; grows by one chunk
  /// only when none is free.  Existing chunks never move.
  Alloc allocate(std::size_t n) {
    ++stats_.allocs;
    used_ = (used_ + 7) & ~std::size_t{7};
    if (cur_ < chunks_.size() && used_ + n <= chunks_[cur_]->size) {
      Chunk* c = chunks_[cur_].get();
      std::byte* p = c->mem.get() + used_;
      used_ += n;
      c->live.fetch_add(1, std::memory_order_relaxed);
      return {p, c};
    }
    return allocate_slow(n);
  }

  /// Consumer side: the block's bytes are no longer needed.  Any thread.
  static void release(Chunk* c) noexcept {
    c->live.fetch_sub(1, std::memory_order_release);
  }

  /// Hard reset: zero every refcount and rewind (error-path cleanup; the
  /// owner must know no consumer still holds a block).  Chunks are kept.
  void reset();

  /// True when no allocation is outstanding in any chunk.
  bool clean() const;

  struct Stats {
    std::uint64_t chunks = 0;          ///< chunks ever allocated (never freed)
    std::uint64_t capacity_bytes = 0;  ///< sum of chunk sizes
    std::uint64_t recycles = 0;        ///< chunk reuses (zero-live rewinds)
    std::uint64_t allocs = 0;          ///< allocate() calls, lifetime
  };
  const Stats& stats() const { return stats_; }

 private:
  Alloc allocate_slow(std::size_t n);

  std::size_t chunk_bytes_;
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::size_t cur_ = 0;   ///< index of the chunk being bumped
  std::size_t used_ = 0;  ///< bytes used in chunks_[cur_]
  Stats stats_;
};

/// Allocate a coroutine-frame block of `n` bytes from the pool.
void* frame_alloc(std::size_t n);
/// Return a block obtained from frame_alloc (same `n`).
void frame_free(void* p, std::size_t n) noexcept;

/// Process-wide count of frame blocks that had to come from ::operator new
/// (pool misses).  Steady-state engine iterations must not advance this.
std::uint64_t frame_pool_mallocs();
/// Process-wide count of frame allocations served from a free list.
std::uint64_t frame_pool_reuses();

}  // namespace util
