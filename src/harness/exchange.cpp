#include "harness/exchange.hpp"

#include <numeric>

#include "simmpi/dist_graph.hpp"
#include "util/hash.hpp"

namespace harness {

// The Protocol <-> Method mapping must round-trip for every neighbor
// protocol (and every method): the harness dispatch relies on it.
static_assert(protocol_of(method_of(Protocol::neighbor_standard)) ==
              Protocol::neighbor_standard);
static_assert(protocol_of(method_of(Protocol::neighbor_partial)) ==
              Protocol::neighbor_partial);
static_assert(protocol_of(method_of(Protocol::neighbor_full)) ==
              Protocol::neighbor_full);
static_assert(method_of(protocol_of(mpix::Method::standard)) ==
              mpix::Method::standard);
static_assert(method_of(protocol_of(mpix::Method::locality)) ==
              mpix::Method::locality);
static_assert(method_of(protocol_of(mpix::Method::locality_dedup)) ==
              mpix::Method::locality_dedup);

namespace {

using simmpi::Comm;
using simmpi::Context;
using simmpi::Task;
using util::fnv_mix;

template <class T>
std::uint64_t fnv_mix_vec(std::uint64_t h, const std::vector<T>& v) {
  h = fnv_mix(h, v.size());
  for (const T& x : v) h = fnv_mix(h, static_cast<std::uint64_t>(x));
  return h;
}

/// `cache_key` behind its family tag (see exchange.hpp).
std::uint64_t plan_key(std::uint64_t pattern_key, std::uint64_t family,
                       std::uint64_t method, bool lpt,
                       const simmpi::Comm& comm) {
  std::uint64_t h = fnv_mix(fnv_mix(pattern_key, family), method);
  h = fnv_mix(h, lpt ? 1 : 0);
  const auto& machine = comm.engine().machine();
  h = fnv_mix(h, static_cast<std::uint64_t>(machine.num_ranks()));
  h = fnv_mix(h, static_cast<std::uint64_t>(machine.ranks_per_region()));
  h = fnv_mix(h, static_cast<std::uint64_t>(machine.ranks_per_node()));
  h = fnv_mix(h, static_cast<std::uint64_t>(comm.size()));
  h = fnv_mix(h, static_cast<std::uint64_t>(machine.num_switch_levels()));
  for (const simmpi::SwitchLevel& lvl : machine.config().switch_levels)
    h = fnv_mix(h, static_cast<std::uint64_t>(lvl.radix));
  return h;
}

/// Prefix-sum displacements of `counts`.
std::vector<int> displs_of(const std::vector<int>& counts) {
  std::vector<int> d(counts.size());
  int acc = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    d[i] = acc;
    acc += counts[i];
  }
  return d;
}

}  // namespace

std::shared_ptr<const mpix::PlanBase> PlanCache::find(std::uint64_t key,
                                                      int rank) {
  util::MutexLock lk(mu_);
  auto* entry = plans_.find({key, rank});
  if (!entry) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return *entry;
}

void PlanCache::put(std::uint64_t key, int rank,
                    std::shared_ptr<const mpix::PlanBase> plan) {
  util::MutexLock lk(mu_);
  if (plan) plans_[{key, rank}] = std::move(plan);
}

std::uint64_t cache_key(std::uint64_t pattern_key, mpix::Method method,
                        bool lpt, const simmpi::Comm& comm) {
  return plan_key(pattern_key, /*family=*/0,
                  static_cast<std::uint64_t>(method), lpt, comm);
}

std::uint64_t cache_key(std::uint64_t pattern_key, mpix::AlltoallMethod method,
                        bool lpt, const simmpi::Comm& comm) {
  return plan_key(pattern_key, /*family=*/1,
                  static_cast<std::uint64_t>(method), lpt, comm);
}

std::uint64_t pattern_fingerprint(const sparse::Halo& halo) {
  std::uint64_t h = fnv_mix(util::kFnvOffsetBasis, halo.ranks.size());
  for (const sparse::RankHalo& r : halo.ranks) {
    h = fnv_mix_vec(h, r.recv_ranks);
    h = fnv_mix_vec(h, r.recv_counts);
    h = fnv_mix_vec(h, r.send_ranks);
    h = fnv_mix_vec(h, r.send_counts);
    h = fnv_mix_vec(h, r.send_idx);
    h = fnv_mix_vec(h, r.send_gids);
    h = fnv_mix_vec(h, r.recv_gids);
  }
  return h;
}

HaloExchange::HaloExchange(const sparse::RankHalo& halo)
    : send_gather_(halo.send_idx),
      sendbuf_(halo.send_idx.size()),
      xext_(halo.recv_gids.size()),
      sendcounts_(halo.send_counts),
      sdispls_(displs_of(halo.send_counts)),
      recvcounts_(halo.recv_counts),
      rdispls_(displs_of(halo.recv_counts)),
      send_idx_(halo.send_gids.begin(), halo.send_gids.end()),
      recv_idx_(halo.recv_gids.begin(), halo.recv_gids.end()) {}

Task<> HaloExchange::start(Context& ctx, std::span<const double> x_local) {
  for (std::size_t k = 0; k < send_gather_.size(); ++k)
    sendbuf_[k] = x_local[send_gather_[k]];
  co_await coll_->start(ctx);
}

Task<std::unique_ptr<HaloExchange>> make_halo_exchange(
    Context& ctx, Comm comm, Protocol protocol, const sparse::RankHalo& halo,
    const ExchangeOptions& opts) {
  // Not make_unique: the constructor is private to this factory.
  std::unique_ptr<HaloExchange> ex(new HaloExchange(halo));
  const bool hypre = protocol == Protocol::hypre;
  const mpix::Method method = hypre ? mpix::Method::standard
                                    : method_of(protocol);
  mpix::Options mopts{.lpt_balance = opts.lpt_balance};

  const bool cacheable = opts.plans && mpix::uses_locality(method);
  std::uint64_t key = 0;
  std::shared_ptr<const mpix::PlanBase> cached;  // keeps the plan alive
  if (cacheable) {
    key = cache_key(opts.pattern_key, method, opts.lpt_balance, comm);
    cached = opts.plans->find(key, comm.rank());
    mopts.plan = cached.get();
  }

  // Hypre's exchange is the standard method without a topology
  // communicator: its adjacency lives on `comm` itself.
  if (hypre)
    ex->graph_ = {comm, halo.recv_ranks, halo.send_ranks};
  else
    ex->graph_ = co_await simmpi::dist_graph_create_adjacent(
        ctx, comm, halo.recv_ranks, halo.send_ranks,
        simmpi::GraphAlgo::handshake);
  mpix::AlltoallvArgs args = mpix::AlltoallvArgsT<double>{
      .sendbuf = ex->sendbuf_,
      .sendcounts = ex->sendcounts_,
      .sdispls = ex->sdispls_,
      .recvbuf = ex->xext_,
      .recvcounts = ex->recvcounts_,
      .rdispls = ex->rdispls_,
      .send_idx = ex->send_idx_,
      .recv_idx = ex->recv_idx_,
  };
  ex->coll_ = co_await mpix::neighbor_alltoallv_init(
      ctx, ex->graph_, std::move(args), method, mopts);
  if (cacheable && !cached)
    opts.plans->put(key, comm.rank(), ex->coll_->plan());
  co_return ex;
}

}  // namespace harness
