#pragma once
/// \file coll.hpp
/// \brief Collective operations built on the simulated point-to-point layer.
///
/// The algorithms are the textbook logarithmic ones (dissemination barrier,
/// binomial broadcast, recursive-doubling allreduce, Bruck allgather,
/// direct alltoallv), so collective *costs* in the simulator scale the way
/// real MPI libraries do.  All operations are collective over the
/// communicator: every member must call them in the same order.  Reduction
/// operators must be associative and commutative.  As in MPI, every receive
/// is sized up front: a rank passes the sizes it expects (bcast,
/// alltoallv), or the sizes are exchanged first (allgatherv).
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
#include <cstring>
#include <span>
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

namespace detail {

/// The Bruck exchange of allgather and allgatherv, over blocks of
/// `count(i)` values from rank i: takes this rank's block and returns
/// every rank's, in rank order.  Round c sends the first min(c, p - c)
/// blocks of acc — those of ranks r, r+1, ... — to rank r - c, and
/// receives the next ones, from rank r + c, straight into acc's tail.  The
/// total is reserved up front, so the storage never moves under a posted
/// request.
template <class T, class Count>
Task<std::vector<T>> bruck_allgather(Context& ctx, Comm comm,
                                     std::vector<T> acc, Count count) {
  const int p = comm.size();
  const int r = comm.rank();
  auto block_count = [&](int first, int n) {
    long total = 0;
    for (int i = 0; i < n; ++i) total += count((first + i) % p);
    return total;
  };
  acc.reserve(static_cast<std::size_t>(block_count(0, p)));
  if (p > 1) {
    const int tag = ctx.engine().next_coll_tag(comm);
    for (int c = 1; c < p; c += std::min(c, p - c)) {
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
    }
  }
  // Undo the rotation in place: acc starts with the blocks of ranks r..p-1.
  std::rotate(acc.begin(), acc.begin() + block_count(r, p - r), acc.end());
  co_return acc;
}

}  // namespace detail

/// Bruck allgather of one `T` per rank; result[i] is rank i's contribution.
/// A plain function: the exchange's own frame is the only one.
template <class T>
Task<std::vector<T>> allgather(Context& ctx, Comm comm, T mine) {
  static_assert(std::is_trivially_copyable_v<T>);
  // Reserved before the first value: growing a one-value vector to p adds
  // a short-lived allocation per call, which raised collom_bench
  // amg_spmv's peak RSS by 5 MB.
  std::vector<T> acc;
  acc.reserve(static_cast<std::size_t>(comm.size()));
  acc.push_back(mine);
  return detail::bruck_allgather(ctx, std::move(comm), std::move(acc),
                                 [](int) { return 1; });
}

/// Bruck allgatherv: gathers every rank's vector, concatenated in rank
/// order.  If `counts_out` is non-null it receives the per-rank element
/// counts.  Two phases: an allgather of sizes, then the Bruck exchange with
/// fully predictable message sizes (as MPI_Allgatherv requires).
template <class T>
Task<std::vector<T>> allgatherv(Context& ctx, Comm comm, std::vector<T> mine,
                                std::vector<int>* counts_out = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::vector<int> counts =
      co_await allgather<int>(ctx, comm, static_cast<int>(mine.size()));
  if (counts_out) *counts_out = counts;
  co_return co_await detail::bruck_allgather(
      ctx, comm, std::move(mine), [&counts](int i) { return counts[i]; });
}

/// Personalized exchange of variable-sized blocks (MPI_Alltoallv): `send`
/// holds this rank's blocks in rank order, `sendcounts[i]` values for rank
/// i.  As MPI_Alltoallv requires, receive sizes are given up front:
/// `recvcounts[i]` values from rank i.  Returns the received blocks
/// concatenated in rank order, this rank's own block included (copied, not
/// sent).  Blocks travel in rank order and a zero block sends no message.
/// A block that arrives with another size is a SimError naming both ranks
/// and both sizes (an in-place receive checks it; see
/// Request::recv_in_place); one that only one side thinks empty ends the
/// run in the engine's deadlock or unreceived-message SimError.
template <class T>
Task<std::vector<T>> alltoallv(Context& ctx, Comm comm,
                               std::span<const T> send,
                               std::span<const int> sendcounts,
                               std::span<const int> recvcounts) {
  static_assert(std::is_trivially_copyable_v<T>);
  const int p = comm.size();
  const int r = comm.rank();
  // Block offsets in values; entry p is the total.
  auto offsets = [p](std::span<const int> counts) {
    if (static_cast<int>(counts.size()) != p)
      throw SimError("coll::alltoallv: " + std::to_string(counts.size()) +
                     " counts for " + std::to_string(p) + " ranks");
    std::vector<std::size_t> at(p + 1, 0);
    for (int i = 0; i < p; ++i) {
      if (counts[i] < 0) throw SimError("coll::alltoallv: negative count");
      at[i + 1] = at[i] + static_cast<std::size_t>(counts[i]);
    }
    return at;
  };
  const std::vector<std::size_t> sat = offsets(sendcounts);
  const std::vector<std::size_t> rat = offsets(recvcounts);
  if (sat[p] != send.size())
    throw SimError("coll::alltoallv: sendcounts sum to " +
                   std::to_string(sat[p]) + " values, send holds " +
                   std::to_string(send.size()));
  if (sendcounts[r] != recvcounts[r])
    throw SimError("coll::alltoallv: rank " + std::to_string(r) + " sends " +
                   std::to_string(sendcounts[r]) +
                   " values to itself, expects " +
                   std::to_string(recvcounts[r]));
  std::vector<T> out(rat[p]);
  std::copy_n(send.begin() + sat[r], sendcounts[r], out.begin() + rat[r]);
  if (p == 1) co_return out;
  const int tag = ctx.engine().next_coll_tag(comm);
  for (int i = 0; i < p; ++i) {
    if (i == r || sendcounts[i] == 0) continue;
    auto s = Request::send(
        comm, std::as_bytes(send.subspan(sat[i], sendcounts[i])), i, tag);
    s.set_control(true);
    s.start(ctx);
    co_await ctx.wait(s);
  }
  for (int i = 0; i < p; ++i) {
    if (i == r || recvcounts[i] == 0) continue;
    auto rr = Request::recv_in_place(
        comm, static_cast<std::size_t>(recvcounts[i]) * sizeof(T), i, tag);
    rr.start(ctx);
    T* block = out.data() + rat[i];
    const auto land = [block](std::span<const std::byte> bytes) {
      std::memcpy(block, bytes.data(), bytes.size());
    };
    co_await ctx.wait_in_place(rr, land);
  }
  co_return out;
}

/// Split a communicator (MPI_Comm_split).  All members call collectively
/// with a non-negative color; members of the same color form a new
/// communicator ordered by (key, rank).
Task<Comm> comm_split(Context& ctx, Comm comm, int color, int key);

/// Split by machine region (the paper's aggregation domain): every rank
/// lands in the communicator of its NUMA region / CPU socket.
Task<Comm> split_by_region(Context& ctx, Comm comm);

}  // namespace simmpi::coll
