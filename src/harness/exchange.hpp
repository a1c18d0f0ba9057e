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
/// launches, wait() completes and exposes x_ext.  Every exchange builds its
/// collective's plan at init; plan reuse is mpix's own
/// (`mpix::Options::plan`).

#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "mpix/neighbor.hpp"
#include "sparse/par_csr.hpp"

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

inline const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::hypre: return "Standard Hypre";
    case Protocol::neighbor_standard: return "Unoptimized Neighbor";
    case Protocol::neighbor_partial: return "Partially Optimized Neighbor";
    case Protocol::neighbor_full: return "Fully Optimized Neighbor";
  }
  throw simmpi::SimError("to_string: invalid Protocol");
}

/// Knobs of `make_halo_exchange`.
struct ExchangeOptions {
  /// Leader-assignment strategy of the locality-aware protocols (see
  /// mpix::Options; ablation knob).
  bool lpt_balance = true;
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
