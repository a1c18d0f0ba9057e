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

/// Shared bookkeeping: owned buffers + gather list.
struct Buffers {
  std::vector<int> send_gather;   ///< local x index per sendbuf slot
  std::vector<double> sendbuf;
  std::vector<double> xext;
  std::vector<int> sendcounts, sdispls, recvcounts, rdispls;
  std::vector<mpix::gidx> send_idx, recv_idx;
  std::vector<int> destinations, sources;

  explicit Buffers(const sparse::RankHalo& halo) {
    destinations = halo.send_ranks;
    sources = halo.recv_ranks;
    sendcounts = halo.send_counts;
    recvcounts = halo.recv_counts;
    sdispls.resize(sendcounts.size());
    rdispls.resize(recvcounts.size());
    int acc = 0;
    for (std::size_t i = 0; i < sendcounts.size(); ++i) {
      sdispls[i] = acc;
      acc += sendcounts[i];
    }
    acc = 0;
    for (std::size_t i = 0; i < recvcounts.size(); ++i) {
      rdispls[i] = acc;
      acc += recvcounts[i];
    }
    send_gather = halo.send_idx;
    send_idx.assign(halo.send_gids.begin(), halo.send_gids.end());
    recv_idx.assign(halo.recv_gids.begin(), halo.recv_gids.end());
    sendbuf.resize(send_gather.size());
    xext.resize(recv_idx.size());
  }

  mpix::AlltoallvArgs args() {
    return mpix::AlltoallvArgsT<double>{
        .sendbuf = sendbuf,
        .sendcounts = sendcounts,
        .sdispls = sdispls,
        .recvbuf = xext,
        .recvcounts = recvcounts,
        .rdispls = rdispls,
        .send_idx = send_idx,
        .recv_idx = recv_idx,
    };
  }

  void gather(std::span<const double> x_local) {
    for (std::size_t k = 0; k < send_gather.size(); ++k)
      sendbuf[k] = x_local[send_gather[k]];
  }
};

/// Any mpix neighbor collective behind the HaloExchange interface.
class NeighborExchange final : public HaloExchange {
 public:
  NeighborExchange(Buffers buf, simmpi::DistGraph graph,
                   std::unique_ptr<mpix::NeighborAlltoallv> coll)
      : buf_(std::move(buf)),
        graph_(std::move(graph)),
        coll_(std::move(coll)) {}

  Task<> start(Context& ctx, std::span<const double> x_local) override {
    buf_.gather(x_local);
    co_await coll_->start(ctx);
  }
  Task<> wait(Context& ctx) override { co_await coll_->wait(ctx); }
  std::span<const double> x_ext() const override { return buf_.xext; }
  mpix::NeighborStats stats() const override { return coll_->stats(); }

 private:
  Buffers buf_;
  simmpi::DistGraph graph_;
  std::unique_ptr<mpix::NeighborAlltoallv> coll_;
};

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

Task<std::unique_ptr<HaloExchange>> make_halo_exchange(
    Context& ctx, Comm comm, Protocol protocol, const sparse::RankHalo& halo,
    const ExchangeOptions& opts) {
  // Neighbor collectives bind spans into the Buffers vectors at init.
  // Moving `Buffers` afterwards is safe: vector moves transfer the heap
  // storage the spans point into.
  auto buf = std::make_unique<Buffers>(halo);
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
  simmpi::DistGraph graph;
  if (hypre)
    graph = {comm, buf->sources, buf->destinations};
  else
    graph = co_await simmpi::dist_graph_create_adjacent(
        ctx, comm, buf->sources, buf->destinations,
        simmpi::GraphAlgo::handshake);
  std::unique_ptr<mpix::NeighborAlltoallv> coll =
      co_await mpix::neighbor_alltoallv_init(ctx, graph, buf->args(), method,
                                             mopts);
  if (cacheable && !cached) opts.plans->put(key, comm.rank(), coll->plan());
  co_return std::make_unique<NeighborExchange>(std::move(*buf),
                                               std::move(graph),
                                               std::move(coll));
}

}  // namespace harness
