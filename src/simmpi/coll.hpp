#pragma once
/// \file coll.hpp
/// \brief Collective operations built on the simulated point-to-point layer.
///
/// The algorithms are the textbook logarithmic ones (dissemination barrier,
/// binomial broadcast, recursive-doubling allreduce, Bruck allgather), so
/// collective *costs* in the simulator scale the way real MPI libraries do.
/// All operations are collective over the communicator: every member must
/// call them in the same order.  Reduction operators must be associative and
/// commutative.  As in MPI, every receive is sized up front: a rank passes
/// the size it expects (bcast), or the sizes are exchanged first
/// (allgatherv).
///
/// Values of type `T` must be trivially copyable.
///
/// Every payload-bearing send here is marked *control* traffic
/// (Request::set_control): these primitives carry setup metadata and
/// synchronization, not workload payload, and losing one would deadlock
/// the collective.  A FaultPlan never drops control messages, so faults
/// apply to the data channels of the persistent collectives — the layer
/// that can opt into reliable delivery — and never to the scaffolding
/// underneath it.

#include <algorithm>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "simmpi/engine.hpp"

namespace simmpi::coll {

namespace detail {

template <class T>
std::span<const std::byte> one_as_bytes(const T& v) {
  return std::as_bytes(std::span<const T>(&v, 1));
}
template <class T>
std::span<std::byte> one_as_writable(T& v) {
  return std::as_writable_bytes(std::span<T>(&v, 1));
}
template <class T>
std::span<const std::byte> vec_as_bytes(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v.data(), v.size()));
}
template <class T>
std::span<std::byte> vec_as_writable(std::vector<T>& v) {
  return std::as_writable_bytes(std::span<T>(v.data(), v.size()));
}

}  // namespace detail

/// Send a single value to `peer` and wait for local completion.
template <class T>
Task<> send_val(Context& ctx, Comm comm, int peer, T v, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  auto s = Request::send(comm, detail::one_as_bytes(v), peer, tag);
  s.set_control(true);
  s.start(ctx);
  co_await ctx.wait(s);
}

/// Receive a single value from `peer`.
template <class T>
Task<T> recv_val(Context& ctx, Comm comm, int peer, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  T v{};
  auto r = Request::recv(comm, detail::one_as_writable(v), peer, tag);
  r.start(ctx);
  co_await ctx.wait(r);
  co_return v;
}

/// Simultaneously exchange one value with `peer`.
template <class T>
Task<T> sendrecv_val(Context& ctx, Comm comm, int peer, T v, int tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  T in{};
  auto s = Request::send(comm, detail::one_as_bytes(v), peer, tag);
  s.set_control(true);
  auto r = Request::recv(comm, detail::one_as_writable(in), peer, tag);
  s.start(ctx);
  r.start(ctx);
  co_await ctx.wait(s);
  co_await ctx.wait(r);
  co_return in;
}

/// Dissemination barrier: log2(P) rounds of zero-byte messages.  No rank
/// leaves before every rank has entered.
inline Task<> barrier(Context& ctx, Comm comm) {
  const int p = comm.size();
  if (p == 1) co_return;
  const int tag = ctx.engine().next_coll_tag(comm);
  const int r = comm.rank();
  for (int k = 1; k < p; k <<= 1) {
    const int dst = (r + k) % p;
    const int src = (r - k + p) % p;
    auto s = Request::send(comm, {}, dst, tag);
    auto rr = Request::recv(comm, {}, src, tag);
    s.start(ctx);
    rr.start(ctx);
    co_await ctx.wait(s);
    co_await ctx.wait(rr);
  }
}

/// Binomial-tree broadcast (MPI_Bcast): every rank passes a vector of the
/// broadcast size, and non-root vectors are overwritten with the root's.
/// A non-root vector of another size is a SimError.
template <class T>
Task<> bcast(Context& ctx, Comm comm, std::vector<T>& data, int root) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = comm.size();
  if (p == 1) co_return;
  const int tag = ctx.engine().next_coll_tag(comm);
  const int r = comm.rank();
  const int vr = (r - root + p) % p;

  if (vr != 0) {
    const int lowbit = vr & (-vr);
    const int parent = ((vr ^ lowbit) + root) % p;
    auto rr = Request::recv(comm, detail::vec_as_writable(data), parent, tag);
    rr.start(ctx);
    co_await ctx.wait(rr);
    if (rr.received_bytes() != data.size() * sizeof(T))
      throw SimError("coll::bcast: rank " + std::to_string(r) + " passed " +
                     std::to_string(data.size() * sizeof(T)) +
                     " bytes, root " + std::to_string(root) + " sent " +
                     std::to_string(rr.received_bytes()));
  }
  int maxmask = 1;
  while (maxmask < p) maxmask <<= 1;
  const int start = (vr == 0) ? (maxmask >> 1) : ((vr & (-vr)) >> 1);
  for (int mask = start; mask >= 1; mask >>= 1) {
    const int child = vr | mask;
    if (child != vr && child < p) {
      auto s = Request::send(comm, detail::vec_as_bytes(data),
                             (child + root) % p, tag);
      s.set_control(true);
      s.start(ctx);
      co_await ctx.wait(s);
    }
  }
}

/// Recursive-doubling allreduce with pre/post folding for non-power-of-two
/// communicator sizes.  `op(T,T)` must be associative and commutative.
template <class T, class F>
Task<T> allreduce(Context& ctx, Comm comm, T val, F op) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = comm.size();
  if (p == 1) co_return val;
  const int tag = ctx.engine().next_coll_tag(comm);
  const int r = comm.rank();
  int m = 1;
  while (m * 2 <= p) m *= 2;
  const int extras = p - m;

  if (r >= m) {
    co_await send_val(ctx, comm, r - m, val, tag);
  } else if (r < extras) {
    T other = co_await recv_val<T>(ctx, comm, r + m, tag);
    val = op(val, other);
  }
  if (r < m) {
    for (int k = 1; k < m; k <<= 1) {
      T other = co_await sendrecv_val(ctx, comm, r ^ k, val, tag);
      val = op(val, other);
    }
  }
  if (r < extras) {
    co_await send_val(ctx, comm, r + m, val, tag);
  } else if (r >= m) {
    val = co_await recv_val<T>(ctx, comm, r - m, tag);
  }
  co_return val;
}

/// Bruck allgather of one `T` per rank; result[i] is rank i's contribution.
template <class T>
Task<std::vector<T>> allgather(Context& ctx, Comm comm, T mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<T> acc;
  acc.reserve(p);
  acc.push_back(mine);
  if (p > 1) {
    const int tag = ctx.engine().next_coll_tag(comm);
    while (static_cast<int>(acc.size()) < p) {
      const int c = static_cast<int>(acc.size());
      const int nblk = std::min(c, p - c);
      const int dst = (r - c + p + p) % p;
      const int src = (r + c) % p;
      std::vector<T> in(nblk);
      auto s = Request::send(
          comm, std::as_bytes(std::span<const T>(acc.data(), nblk)), dst, tag);
      s.set_control(true);
      auto rr = Request::recv(comm, detail::vec_as_writable(in), src, tag);
      s.start(ctx);
      rr.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(rr);
      acc.insert(acc.end(), in.begin(), in.end());
    }
  }
  // acc[i] is the block of rank (r+i) mod p; undo the rotation.
  std::vector<T> res(p);
  for (int i = 0; i < p; ++i) res[(r + i) % p] = acc[i];
  co_return res;
}

/// Bruck allgatherv: gathers every rank's vector, concatenated in rank
/// order.  If `counts_out` is non-null it receives the per-rank element
/// counts.  Two phases: an allgather of sizes, then the Bruck exchange with
/// fully predictable message sizes (as MPI_Allgatherv requires).
template <class T>
Task<std::vector<T>> allgatherv(Context& ctx, Comm comm, std::vector<T> mine,
                                std::vector<int>* counts_out = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = comm.size();
  const int r = comm.rank();
  std::vector<int> counts =
      co_await allgather<int>(ctx, comm, static_cast<int>(mine.size()));
  if (counts_out) *counts_out = counts;

  // acc holds the payloads of ranks (r+i)%p for i in [0, nblocks), each
  // round received straight into its tail.  The total is reserved up front,
  // so the storage never moves under a posted request.
  std::vector<T> acc = std::move(mine);
  acc.reserve(std::accumulate(counts.begin(), counts.end(), std::size_t{0}));
  int nblocks = 1;
  if (p > 1) {
    const int tag = ctx.engine().next_coll_tag(comm);
    auto block_count = [&](int first, int n) {
      long total = 0;
      for (int i = 0; i < n; ++i) total += counts[(first + i) % p];
      return total;
    };
    while (nblocks < p) {
      const int c = nblocks;
      const int nblk = std::min(c, p - c);
      const int dst = (r - c + p + p) % p;
      const int src = (r + c) % p;
      const long send_elems = block_count(r, nblk);
      const long recv_elems = block_count(src, nblk);
      const std::size_t filled = acc.size();
      acc.resize(filled + recv_elems);
      auto s = Request::send(
          comm, std::as_bytes(std::span<const T>(acc.data(), send_elems)), dst,
          tag);
      s.set_control(true);
      auto rr = Request::recv(
          comm,
          std::as_writable_bytes(std::span<T>(acc).subspan(filled, recv_elems)),
          src, tag);
      s.start(ctx);
      rr.start(ctx);
      co_await ctx.wait(s);
      co_await ctx.wait(rr);
      nblocks += nblk;
    }
  }
  // Undo the rotation in place: acc starts with the blocks of ranks r..p-1.
  const long head = std::accumulate(counts.begin() + r, counts.end(), 0L);
  std::rotate(acc.begin(), acc.begin() + head, acc.end());
  co_return acc;
}

/// Split a communicator (MPI_Comm_split).  All members call collectively
/// with a non-negative color; members of the same color form a new
/// communicator ordered by (key, rank).
Task<Comm> comm_split(Context& ctx, Comm comm, int color, int key);

/// Split by machine region (the paper's aggregation domain): every rank
/// lands in the communicator of its NUMA region / CPU socket.
Task<Comm> split_by_region(Context& ctx, Comm comm);

}  // namespace simmpi::coll
