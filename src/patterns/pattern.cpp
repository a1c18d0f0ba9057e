#include "patterns/pattern.hpp"

#include <algorithm>
#include <array>

#include "simmpi/types.hpp"
#include "util/hash.hpp"

namespace patterns {

namespace {

/// A directed traffic demand before per-rank assembly.
struct Edge {
  int src;
  int dst;
  int count;  ///< values
};

using util::splitmix64;

/// Counter-mode RNG over (seed, stream, counter): every draw is addressed,
/// so generation order cannot leak into the result.
std::uint64_t draw(unsigned seed, std::uint64_t stream, std::uint64_t ctr) {
  return splitmix64((static_cast<std::uint64_t>(seed) << 32) ^
                    splitmix64(stream) ^ (ctr * 0xD1342543DE82EF95ull));
}

/// Assemble the global edge list into per-rank exchanges: sort by
/// (src, dst), merge duplicate directed pairs (the locality methods reject
/// duplicate adjacency entries), drop empties, then two passes build the
/// ascending destination and source lists with prefix displacements.
Workload finalize(const char* name, const simmpi::Machine& machine,
                  const PatternParams& params, std::vector<Edge> edges,
                  double default_overlap = 0.0) {
  const int nranks = machine.num_ranks();
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  std::vector<Edge> merged;
  merged.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.count <= 0) continue;
    if (!merged.empty() && merged.back().src == e.src &&
        merged.back().dst == e.dst) {
      merged.back().count += e.count;
    } else {
      merged.push_back(e);
    }
  }

  Workload wl;
  wl.pattern = name;
  wl.params = params;
  wl.nranks = nranks;
  wl.overlap_seconds = params.overlap_seconds > 0.0 ? params.overlap_seconds
                                                    : default_overlap;
  wl.ranks.resize(nranks);
  for (const Edge& e : merged) {
    RankExchange& s = wl.ranks[e.src];
    s.destinations.push_back(e.dst);
    s.sdispls.push_back(static_cast<int>(
        std::accumulate(s.sendcounts.begin(), s.sendcounts.end(), 0)));
    s.sendcounts.push_back(e.count);
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Edge& a, const Edge& b) { return a.dst < b.dst; });
  for (const Edge& e : merged) {
    RankExchange& r = wl.ranks[e.dst];
    r.sources.push_back(e.src);
    r.rdispls.push_back(static_cast<int>(
        std::accumulate(r.recvcounts.begin(), r.recvcounts.end(), 0)));
    r.recvcounts.push_back(e.count);
  }
  return wl;
}

/// Most-square factorization n = a * b with a <= b.
std::pair<int, int> factor2(int n) {
  int a = 1;
  for (int d = 1; static_cast<long long>(d) * d <= n; ++d)
    if (n % d == 0) a = d;
  return {a, n / a};
}

/// Roughly cubic factorization n = a * b * c with a <= b <= c.
std::array<int, 3> factor3(int n) {
  int a = 1;
  for (int d = 1; static_cast<long long>(d) * d * d <= n; ++d)
    if (n % d == 0) a = d;
  auto [b, c] = factor2(n / a);
  return {a, b, c};
}

int wrap(int x, int n) { return ((x % n) + n) % n; }

/// Periodic 2D stencil halo on the most-square rank grid.  Face neighbors
/// carry `values` values; with `diagonals`, corner neighbors carry
/// max(1, values/4) — matching the surface-to-edge ratio of a real halo.
Workload stencil2d(const char* name, const simmpi::Machine& machine,
                   const PatternParams& p, bool diagonals) {
  const int n = machine.num_ranks();
  const auto [nx, ny] = factor2(n);
  const int face = std::max(1, p.values);
  const int corner = std::max(1, p.values / 4);
  std::vector<Edge> edges;
  for (int r = 0; r < n; ++r) {
    const int x = r % nx, y = r / nx;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const bool diag = dx != 0 && dy != 0;
        if (diag && !diagonals) continue;
        const int dst = wrap(x + dx, nx) + nx * wrap(y + dy, ny);
        if (dst == r) continue;  // degenerate dimension wrapped onto self
        edges.push_back({r, dst, diag ? corner : face});
      }
    }
  }
  return finalize(name, machine, p, std::move(edges));
}

/// Periodic 3D stencil halo.  Counts scale with the touching surface:
/// faces `values`, edges values/4, corners values/8 (all at least 1).
Workload stencil3d(const char* name, const simmpi::Machine& machine,
                   const PatternParams& p, bool full27) {
  const int n = machine.num_ranks();
  const auto [nx, ny, nz] = factor3(n);
  const int face = std::max(1, p.values);
  const int edge_c = std::max(1, p.values / 4);
  const int corner = std::max(1, p.values / 8);
  std::vector<Edge> edges;
  for (int r = 0; r < n; ++r) {
    const int x = r % nx, y = (r / nx) % ny, z = r / (nx * ny);
    for (int dz = -1; dz <= 1; ++dz) {
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int nonzero = (dx != 0) + (dy != 0) + (dz != 0);
          if (nonzero == 0) continue;
          if (!full27 && nonzero > 1) continue;
          const int dst = wrap(x + dx, nx) + nx * wrap(y + dy, ny) +
                          nx * ny * wrap(z + dz, nz);
          if (dst == r) continue;
          const int cnt = nonzero == 1 ? face : (nonzero == 2 ? edge_c : corner);
          edges.push_back({r, dst, cnt});
        }
      }
    }
  }
  return finalize(name, machine, p, std::move(edges));
}

Workload make_stencil2d5(const simmpi::Machine& m, const PatternParams& p) {
  return stencil2d("stencil2d5", m, p, false);
}
Workload make_stencil2d9(const simmpi::Machine& m, const PatternParams& p) {
  return stencil2d("stencil2d9", m, p, true);
}
Workload make_stencil3d7(const simmpi::Machine& m, const PatternParams& p) {
  return stencil3d("stencil3d7", m, p, false);
}
Workload make_stencil3d27(const simmpi::Machine& m, const PatternParams& p) {
  return stencil3d("stencil3d27", m, p, true);
}

/// The sink ranks of the incast / bursty-I/O patterns: `sinks` ranks
/// spread evenly across the machine (so each lands on a different node
/// when there are enough nodes).
std::vector<int> spread_ranks(int nranks, int sinks) {
  const int s = std::clamp(sinks, 1, nranks);
  std::vector<int> out(s);
  for (int i = 0; i < s; ++i) out[i] = i * (nranks / s);
  return out;
}

/// N-to-1 incast: `fan_in` senders per sink (0 = every other rank), walked
/// cyclically from the sink so growing the fan-in recruits senders from
/// ever more remote regions and nodes.  The workload whose completion time
/// the endpoint-congestion term must order by fan-in.
Workload make_incast(const simmpi::Machine& m, const PatternParams& p) {
  const int n = m.num_ranks();
  const std::vector<int> sinks = spread_ranks(n, p.sinks);
  const int want = p.fan_in <= 0 ? n - 1 : std::min(p.fan_in, n - 1);
  std::vector<Edge> edges;
  for (const int sink : sinks) {
    for (int j = 1, taken = 0; taken < want && j < n; ++j) {
      const int src = (sink + j) % n;
      edges.push_back({src, sink, std::max(1, p.values)});
      ++taken;
    }
  }
  return finalize("incast", m, p, std::move(edges));
}

/// Checkpoint-style bursty writes: every rank flushes 8 * values values
/// to its assigned I/O aggregator (`sinks` aggregators, round-robin
/// assignment).  Aggregators write to themselves — a self-tier memcpy.
Workload make_bursty_io(const simmpi::Machine& m, const PatternParams& p) {
  const int n = m.num_ranks();
  const std::vector<int> aggs = spread_ranks(n, p.sinks);
  const long flush = static_cast<long>(std::max(1, p.values)) * 8;
  const int cnt = static_cast<int>(std::min<long>(flush, 1 << 20));
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    edges.push_back({r, aggs[r % static_cast<int>(aggs.size())], cnt});
  return finalize("bursty_io", m, p, std::move(edges));
}

/// Random sparse graph with locality skew: each rank picks `degree`
/// distinct destinations, each drawn from its own region with probability
/// 1/2 (else from all ranks), with ragged per-edge counts.  Counter-mode
/// draws keyed by (seed, src) make the graph a pure function of the
/// params.
Workload make_random_sparse(const simmpi::Machine& m, const PatternParams& p) {
  const int n = m.num_ranks();
  const int rpr = m.ranks_per_region();
  const int want = std::clamp(p.degree, 0, n - 1);
  constexpr std::uint64_t kSkew = 2048;  // of 4096: P(draw in own region)
  std::vector<Edge> edges;
  std::vector<int> picked;
  for (int src = 0; src < n; ++src) {
    picked.clear();
    const int reg_base = (src / rpr) * rpr;
    const int reg_size = std::min(rpr, n - reg_base);
    std::uint64_t ctr = 0;
    for (int t = 0; t < want && ctr < 8u * want + 64u; ) {
      const std::uint64_t u = draw(p.seed, src, ctr++);
      int dst;
      if ((u & 4095) < kSkew && reg_size > 1) {
        dst = reg_base + static_cast<int>((u >> 12) % reg_size);
      } else {
        dst = static_cast<int>((u >> 12) % n);
      }
      if (dst == src ||
          std::find(picked.begin(), picked.end(), dst) != picked.end())
        continue;
      picked.push_back(dst);
      const int cnt =
          1 + static_cast<int>(draw(p.seed, src, 1000 + ctr) %
                               (2u * std::max(1, p.values)));
      edges.push_back({src, dst, cnt});
      ++t;
    }
  }
  return finalize("random_sparse", m, p, std::move(edges));
}

/// Pairwise ring shifted by one region: rank r exchanges with
/// r +- ranks_per_region, so every message crosses a region (and usually a
/// node) boundary.  Default overlap window of 20 us of simulated compute —
/// the mpi_sendrecv_test-style pattern for overlapped vs. blocking runs.
Workload make_ring_overlap(const simmpi::Machine& m, const PatternParams& p) {
  const int n = m.num_ranks();
  const int stride = m.ranks_per_region() % n;
  std::vector<Edge> edges;
  if (stride != 0) {
    for (int r = 0; r < n; ++r)
      edges.push_back({r, (r + stride) % n, std::max(1, p.values)});
  }
  return finalize("ring_overlap", m, p, std::move(edges), 2.0e-5);
}

constexpr PatternSpec kRegistry[] = {
    {"stencil2d5", "periodic 2D 5-point stencil halo", make_stencil2d5},
    {"stencil2d9", "periodic 2D 9-point stencil halo (diagonals)",
     make_stencil2d9},
    {"stencil3d7", "periodic 3D 7-point stencil halo", make_stencil3d7},
    {"stencil3d27", "periodic 3D 27-point stencil halo (edges+corners)",
     make_stencil3d27},
    {"incast", "N-to-1 incast / all-to-many with configurable fan-in",
     make_incast},
    {"bursty_io", "checkpoint-style bursty writes to I/O aggregator ranks",
     make_bursty_io},
    {"random_sparse", "random sparse graph with degree and locality skew",
     make_random_sparse},
    {"ring_overlap", "region-crossing pairwise ring with an overlap window",
     make_ring_overlap},
};

}  // namespace

std::span<const PatternSpec> registry() { return kRegistry; }

const PatternSpec* find(std::string_view name) {
  for (const PatternSpec& s : kRegistry)
    if (name == s.name) return &s;
  return nullptr;
}

Workload generate(std::string_view name, const simmpi::Machine& machine,
                  const PatternParams& params) {
  const PatternSpec* spec = find(name);
  if (spec == nullptr)
    throw simmpi::SimError("patterns::generate: unknown pattern '" +
                           std::string(name) + "'");
  return spec->make(machine, params);
}

Workload uniform_dense(const simmpi::Machine& machine,
                       const PatternParams& params) {
  const int n = machine.num_ranks();
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * n);
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst)
      edges.push_back({src, dst, params.values});
  return finalize("uniform_dense", machine, params, std::move(edges));
}

mpix::gidx value_gid(int src, int dst, int j, unsigned seed) {
  // Indices live in per-source blocks of kStride and are drawn from a
  // per-source pool of kPool < kStride slots, so distinct sources never
  // collide while one source's segments to different destinations do —
  // which is what gives the dedup method something to remove.
  constexpr mpix::gidx kStride = 1024;
  constexpr std::uint64_t kPool = 512;
  const std::uint64_t off = draw(seed, (static_cast<std::uint64_t>(src) << 21) ^
                                           static_cast<std::uint64_t>(dst),
                                 0) +
                            static_cast<std::uint64_t>(j);
  return static_cast<mpix::gidx>(src) * kStride +
         static_cast<mpix::gidx>(off % kPool);
}

std::byte payload_byte(mpix::gidx gid, std::size_t i) {
  return static_cast<std::byte>(
      splitmix64(static_cast<std::uint64_t>(gid) * 0x100000001B3ull + i) &
      0xFF);
}

RankBuffers make_buffers(const Workload& wl, int rank,
                         std::size_t element_size) {
  const RankExchange& ex = wl.ranks[rank];
  RankBuffers buf;
  buf.send_gids.reserve(static_cast<std::size_t>(ex.send_values()));
  for (std::size_t d = 0; d < ex.destinations.size(); ++d)
    for (int j = 0; j < ex.sendcounts[d]; ++j)
      buf.send_gids.push_back(
          value_gid(rank, ex.destinations[d], j, wl.params.seed));
  buf.recv_gids.reserve(static_cast<std::size_t>(ex.recv_values()));
  for (std::size_t s = 0; s < ex.sources.size(); ++s)
    for (int j = 0; j < ex.recvcounts[s]; ++j)
      buf.recv_gids.push_back(value_gid(ex.sources[s], rank, j, wl.params.seed));

  buf.sendbuf.resize(buf.send_gids.size() * element_size);
  for (std::size_t k = 0; k < buf.send_gids.size(); ++k)
    for (std::size_t i = 0; i < element_size; ++i)
      buf.sendbuf[k * element_size + i] = payload_byte(buf.send_gids[k], i);
  buf.recvbuf.resize(buf.recv_gids.size() * element_size);
  clear_recv(buf);
  return buf;
}

void clear_recv(RankBuffers& buf) {
  std::fill(buf.recvbuf.begin(), buf.recvbuf.end(), std::byte{0xEE});
}

mpix::AlltoallvArgs args_view(const Workload& wl, int rank, RankBuffers& buf,
                              std::size_t element_size) {
  const RankExchange& ex = wl.ranks[rank];
  return mpix::AlltoallvArgs{.sendbuf = buf.sendbuf,
                             .sendcounts = ex.sendcounts,
                             .sdispls = ex.sdispls,
                             .recvbuf = buf.recvbuf,
                             .recvcounts = ex.recvcounts,
                             .rdispls = ex.rdispls,
                             .element_size = element_size,
                             .send_idx = buf.send_gids,
                             .recv_idx = buf.recv_gids};
}

mpix::AlltoallvArgs dense_args_view(const Workload& wl, int rank,
                                    RankBuffers& buf,
                                    std::size_t element_size) {
  const RankExchange& ex = wl.ranks[rank];
  // Expand the compact neighbor counts to one entry per communicator rank.
  // Neighbor lists ascend, so the compact buffer layout *is* the expanded
  // layout — the displacements just repeat across non-neighbors.
  std::vector<int> sendcounts(wl.nranks, 0), sdispls(wl.nranks, 0);
  std::vector<int> recvcounts(wl.nranks, 0), rdispls(wl.nranks, 0);
  for (std::size_t d = 0; d < ex.destinations.size(); ++d)
    sendcounts[ex.destinations[d]] = ex.sendcounts[d];
  for (std::size_t s = 0; s < ex.sources.size(); ++s)
    recvcounts[ex.sources[s]] = ex.recvcounts[s];
  for (int r = 1; r < wl.nranks; ++r) {
    sdispls[r] = sdispls[r - 1] + sendcounts[r - 1];
    rdispls[r] = rdispls[r - 1] + recvcounts[r - 1];
  }
  return mpix::AlltoallvArgs{.sendbuf = buf.sendbuf,
                             .sendcounts = std::move(sendcounts),
                             .sdispls = std::move(sdispls),
                             .recvbuf = buf.recvbuf,
                             .recvcounts = std::move(recvcounts),
                             .rdispls = std::move(rdispls),
                             .element_size = element_size,
                             .send_idx = buf.send_gids,
                             .recv_idx = buf.recv_gids};
}

long verify_recv(const Workload& wl, int rank, const RankBuffers& buf,
                 std::size_t element_size) {
  (void)wl;
  (void)rank;
  long bad = 0;
  for (std::size_t k = 0; k < buf.recv_gids.size(); ++k)
    for (std::size_t i = 0; i < element_size; ++i)
      if (buf.recvbuf[k * element_size + i] !=
          payload_byte(buf.recv_gids[k], i))
        ++bad;
  return bad;
}

}  // namespace patterns
