#pragma once
/// \file alloc_hook.hpp
/// \brief Global `operator new` replacement that counts heap allocations.
///
/// Include this header in **exactly one translation unit of a binary**
/// (it defines the replaceable global allocation functions — a second
/// inclusion is a duplicate-symbol link error by design).  Used by the
/// allocation-regression test to prove the steady-state hot path performs
/// zero heap allocations; see docs/ARCHITECTURE.md, "Memory management in
/// the engine".
///
/// The hook is malloc-backed and works under ASan (which intercepts the
/// underlying malloc/free); only the *count* is observed, never the
/// pointers.
///
/// Thread-safety: the hook's only state is one relaxed atomic counter —
/// lock-free by construction, so there is nothing for a clang
/// `GUARDED_BY` annotation to guard (see util/thread_annotations.hpp for
/// the convention).  Concurrent allocating threads are exercised under
/// ThreadSanitizer by the cache-concurrency battery; relaxed ordering is
/// correct because tests only compare counts read from quiescent points
/// (after joins), never mid-flight.

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace util {

/// Number of global operator new calls since process start.
inline std::atomic<std::uint64_t> g_alloc_hook_count{0};

inline std::uint64_t alloc_hook_count() {
  return g_alloc_hook_count.load(std::memory_order_relaxed);
}

namespace hook_detail {
inline void* counted_alloc(std::size_t n) {
  util::g_alloc_hook_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace hook_detail

}  // namespace util

void* operator new(std::size_t n) { return util::hook_detail::counted_alloc(n); }
void* operator new[](std::size_t n) {
  return util::hook_detail::counted_alloc(n);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  util::g_alloc_hook_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  util::g_alloc_hook_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t al) {
  util::g_alloc_hook_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(al),
                                   (n + static_cast<std::size_t>(al) - 1) &
                                       ~(static_cast<std::size_t>(al) - 1)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
