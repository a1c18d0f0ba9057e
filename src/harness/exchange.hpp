#pragma once
/// \file exchange.hpp
/// \brief The halo exchange of the distributed SpMV, over the four
/// protocols of the paper's evaluation (Section 4):
///   * `hypre`            — persistent point-to-point, as in Hypre 2.28:
///     the standard method's p2p wrap on the parent communicator, with no
///     topology communicator created;
///   * `neighbor_standard`— unoptimized persistent neighbor collective;
///   * `neighbor_partial` — locality-aware aggregation;
///   * `neighbor_full`    — aggregation + duplicate removal.
///
/// The three neighbor protocols map 1:1 onto `mpix::Method`
/// (`method_of`/`protocol_of`); the dispatch of all four lives entirely in
/// `mpix::neighbor_alltoallv_init`.
///
/// One concrete `HaloExchange` serves every protocol: it owns its gather
/// list, its gathered send buffer, its external-vector receive buffer
/// (`x_ext`, laid out as col_map_offd), its graph and its collective, so
/// the SpMV code is protocol-agnostic: start(x_local) gathers and
/// launches, wait() completes and exposes x_ext.
///
/// A `PlanCache` amortizes locality-aware setup across exchanges: the
/// first init of a pattern stores its `mpix::LocalityPlan`; later inits of
/// the same (pattern, method, machine) bind the cached plan without any
/// setup communication.

#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "mpix/alltoall.hpp"
#include "mpix/neighbor.hpp"
#include "sparse/par_csr.hpp"
#include "util/flat_map.hpp"
#include "util/thread_annotations.hpp"

namespace harness {

/// Protocols evaluated by the paper (Figure legends).
enum class Protocol {
  hypre,
  neighbor_standard,
  neighbor_partial,
  neighbor_full,
};

inline constexpr Protocol kAllProtocols[] = {
    Protocol::hypre, Protocol::neighbor_standard, Protocol::neighbor_partial,
    Protocol::neighbor_full};

/// The mpix method behind a neighbor protocol (1:1).  Throws for
/// `Protocol::hypre`, which is not a neighborhood collective.
constexpr mpix::Method method_of(Protocol p) {
  switch (p) {
    case Protocol::neighbor_standard: return mpix::Method::standard;
    case Protocol::neighbor_partial: return mpix::Method::locality;
    case Protocol::neighbor_full: return mpix::Method::locality_dedup;
    case Protocol::hypre: break;
  }
  throw simmpi::SimError("method_of: Protocol::hypre has no mpix::Method");
}

/// Inverse of `method_of` (total: every method has a protocol).
constexpr Protocol protocol_of(mpix::Method m) {
  switch (m) {
    case mpix::Method::standard: return Protocol::neighbor_standard;
    case mpix::Method::locality: return Protocol::neighbor_partial;
    case mpix::Method::locality_dedup: return Protocol::neighbor_full;
  }
  throw simmpi::SimError("protocol_of: invalid mpix::Method");
}

/// Whether the protocol performs locality-aware aggregation setup (and can
/// therefore benefit from a PlanCache).
constexpr bool uses_locality(Protocol p) {
  return p == Protocol::neighbor_partial || p == Protocol::neighbor_full;
}

inline const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::hypre: return "Standard Hypre";
    case Protocol::neighbor_standard: return "Unoptimized Neighbor";
    case Protocol::neighbor_partial: return "Partially Optimized Neighbor";
    case Protocol::neighbor_full: return "Fully Optimized Neighbor";
  }
  throw simmpi::SimError("to_string: invalid Protocol");
}

/// Host-side cache of collective plans, shared by all simulated ranks.
/// Stores any `mpix::PlanBase` kind — neighbor `LocalityPlan`s and dense
/// `BruckPlan`s share one cache.  A hit goes straight to `Options::plan`,
/// where init rejects a plan of the wrong kind, so keys come from
/// `cache_key`, which mixes in the method.
///
/// Keys identify the *global* exchange pattern (use `pattern_fingerprint`
/// on the full `sparse::Halo`), so on any given exchange either every rank
/// hits or every rank misses — plan construction stays collectively safe.
/// Plans are engine-free, so a cache may outlive engine runs (benchmark
/// repetitions) as long as machine shape and communicator membership are
/// unchanged; `cache_key` mixes both into the lookup key.
///
/// Thread-safe: the engine resumes rank coroutines on a worker pool, so
/// concurrent find/put from ranks of one phase are expected.  Entries are
/// keyed per rank, hence hit/miss totals stay deterministic regardless of
/// the interleaving.  Storage is a sorted-vector map (util::FlatMap):
/// lookups during setup-heavy sweeps stay cache-friendly, and inserts
/// happen only on the cold first exchange of a pattern.
class PlanCache {
 public:
  /// Cached plan of `rank` under `key`, or null.  Counts a hit or a miss.
  std::shared_ptr<const mpix::PlanBase> find(std::uint64_t key, int rank);

  void put(std::uint64_t key, int rank,
           std::shared_ptr<const mpix::PlanBase> plan);

  long hits() const {
    util::MutexLock lk(mu_);
    return hits_;
  }
  long misses() const {
    util::MutexLock lk(mu_);
    return misses_;
  }
  std::size_t size() const {
    util::MutexLock lk(mu_);
    return plans_.size();
  }
  void clear() {
    util::MutexLock lk(mu_);
    plans_.clear();
  }

 private:
  mutable util::Mutex mu_;
  util::FlatMap<std::pair<std::uint64_t, int>,
                std::shared_ptr<const mpix::PlanBase>>
      plans_ GUARDED_BY(mu_);
  long hits_ GUARDED_BY(mu_) = 0;
  long misses_ GUARDED_BY(mu_) = 0;
};

/// The one plan-cache key recipe (make_halo_exchange and the pattern
/// runners): the global pattern fingerprint `pattern_key` (same value on
/// every rank), the method tagged by its family, the leader strategy and
/// the machine/communicator shape.  The family tag matters: sparse
/// `mpix::Method` and dense `mpix::AlltoallMethod` enumerators share
/// values, and `Method::locality` and `AlltoallMethod::node_aggregated`
/// both build LocalityPlans.  Switch tapers stay out (they scale link
/// costs, never a plan, so a taper sweep re-binds cached plans), and so
/// does the element size (plan offsets are in values).  Only O(1) scalars
/// are mixed in; a collision across communicators with different
/// membership cannot misroute, because binding a plan validates the full
/// membership fingerprint baked into it and throws on mismatch.
std::uint64_t cache_key(std::uint64_t pattern_key, mpix::Method method,
                        bool lpt, const simmpi::Comm& comm);
std::uint64_t cache_key(std::uint64_t pattern_key, mpix::AlltoallMethod method,
                        bool lpt, const simmpi::Comm& comm);

/// Order-sensitive fingerprint of a *global* halo pattern (all ranks'
/// send/recv lists, counts, gather indices and gids).  Identical on every
/// rank by construction; equal patterns yield equal keys.
std::uint64_t pattern_fingerprint(const sparse::Halo& halo);

/// Knobs of `make_halo_exchange`.
struct ExchangeOptions {
  /// Leader-assignment strategy of the locality-aware protocols (see
  /// mpix::Options; ablation knob).
  bool lpt_balance = true;
  /// Optional plan reuse: with `plans` set, locality-aware setup is paid
  /// once per (pattern_key, protocol, machine) and reused afterwards.
  /// `pattern_key` must fingerprint the *global* pattern — same value on
  /// every rank of the exchange (see pattern_fingerprint).
  PlanCache* plans = nullptr;
  std::uint64_t pattern_key = 0;
};

// ExchangeOptions is written as a braced temporary inside co_await'd
// make_halo_exchange calls; g++ 12 double-destroys such temporaries (see
// the warning in mpix/neighbor.hpp and docs/COROUTINE_PITFALLS.md), which
// is only harmless while this stays trivially destructible.  Do not add
// owning members.
static_assert(std::is_trivially_destructible_v<ExchangeOptions>);

class HaloExchange;

/// Build the exchange for `rank`'s halo pattern.  Collective over `comm`
/// (neighbor protocols create topologies; the locality-aware ones also
/// perform aggregation setup).
/// The exchange does not keep references to `halo` after init.
simmpi::Task<std::unique_ptr<HaloExchange>> make_halo_exchange(
    simmpi::Context& ctx, simmpi::Comm comm, Protocol protocol,
    const sparse::RankHalo& halo, const ExchangeOptions& opts = {});

/// A persistent halo exchange bound to one rank's pattern; built only by
/// `make_halo_exchange`.  Its collective binds spans into the buffers
/// below.
class HaloExchange {
 public:
  /// Gather x values and launch the exchange.
  simmpi::Task<> start(simmpi::Context& ctx, std::span<const double> x_local);
  /// Complete the exchange; afterwards x_ext() holds the halo values in
  /// col_map_offd order.
  simmpi::Task<> wait(simmpi::Context& ctx) { return coll_->wait(ctx); }
  std::span<const double> x_ext() const { return xext_; }
  mpix::NeighborStats stats() const { return coll_->stats(); }

 private:
  friend simmpi::Task<std::unique_ptr<HaloExchange>> make_halo_exchange(
      simmpi::Context&, simmpi::Comm, Protocol, const sparse::RankHalo&,
      const ExchangeOptions&);
  explicit HaloExchange(const sparse::RankHalo& halo);

  std::vector<int> send_gather_;  ///< local x index per sendbuf slot
  std::vector<double> sendbuf_, xext_;
  std::vector<int> sendcounts_, sdispls_, recvcounts_, rdispls_;
  std::vector<mpix::gidx> send_idx_, recv_idx_;
  simmpi::DistGraph graph_;
  std::unique_ptr<mpix::NeighborAlltoallv> coll_;
};

}  // namespace harness
