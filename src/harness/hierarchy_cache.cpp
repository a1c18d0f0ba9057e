#include "harness/hierarchy_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "simmpi/types.hpp"
#include "util/hash.hpp"

namespace harness {

namespace {

using simmpi::SimError;
using util::fnv1a;

constexpr std::uint64_t kMagic = 0x434F4C4C48495231ull;  // "COLLHIR1"

/// Integrity checksum of a payload: FNV-1a over 8-byte chunks (plus a
/// byte-wise tail), ~8x faster than byte-wise FNV on the multi-hundred-MB
/// payloads of full-scale hierarchies.
std::uint64_t payload_checksum(const unsigned char* data, std::size_t n) {
  std::uint64_t h = util::kFnvOffsetBasis;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    h ^= w;
    h *= util::kFnvPrime;
    h ^= h >> 32;
  }
  return fnv1a(data + i, n - i, h);
}

/// Append-only native-endian buffer writer.
class Writer {
 public:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  template <class T>
  void scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar(static_cast<std::uint64_t>(v.size()));
    raw(v.data(), v.size() * sizeof(T));
  }
  void span_as_vec(const auto& s) {  // std::span of trivially copyable
    scalar(static_cast<std::uint64_t>(s.size()));
    raw(s.data(), s.size_bytes());
  }
  const std::vector<unsigned char>& bytes() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader over a loaded payload; throws on truncation (the
/// caller converts any throw into a cache miss).
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t n) : p_(data), end_(data + n) {}
  void raw(void* out, std::size_t n) {
    if (static_cast<std::size_t>(end_ - p_) < n)
      throw SimError("HierarchyCache: truncated payload");
    if (n != 0) std::memcpy(out, p_, n);  // empty vectors: `out` may be null
    p_ += n;
  }
  template <class T>
  T scalar() {
    T v;
    raw(&v, sizeof v);
    return v;
  }
  template <class T>
  std::vector<T> vec() {
    const std::uint64_t n = scalar<std::uint64_t>();
    if (n > static_cast<std::uint64_t>(end_ - p_) / sizeof(T))
      throw SimError("HierarchyCache: oversized vector length");
    std::vector<T> v(n);
    raw(v.data(), n * sizeof(T));
    return v;
  }
  bool exhausted() const { return p_ == end_; }

 private:
  const unsigned char* p_;
  const unsigned char* end_;
};

// --- matrix / halo serialization ------------------------------------

void put(Writer& w, const sparse::Csr& m) {
  w.scalar<std::int32_t>(m.rows());
  w.scalar<std::int32_t>(m.cols());
  w.span_as_vec(m.rowptr());
  w.span_as_vec(m.colind());
  w.span_as_vec(std::span<const double>(m.values()));
}

sparse::Csr get_csr(Reader& r) {
  const int rows = r.scalar<std::int32_t>();
  const int cols = r.scalar<std::int32_t>();
  auto rowptr = r.vec<long>();
  auto colind = r.vec<int>();
  auto vals = r.vec<double>();
  // from_raw re-validates the structure, so a corrupted-but-checksummed
  // file (format version drift) still cannot produce a malformed matrix.
  return sparse::Csr::from_raw(rows, cols, std::move(rowptr),
                               std::move(colind), std::move(vals));
}

void put(Writer& w, const sparse::ParCsr& m) {
  w.scalar<std::int64_t>(m.global_rows);
  w.scalar<std::int64_t>(m.global_cols);
  w.vec(m.row_part);
  w.vec(m.col_part);
  w.scalar<std::uint64_t>(m.ranks.size());
  for (const sparse::ParCsrRank& rk : m.ranks) {
    w.scalar<std::int64_t>(rk.first_row);
    w.scalar<std::int64_t>(rk.first_col);
    put(w, rk.diag);
    put(w, rk.offd);
    w.vec(rk.col_map_offd);
  }
}

sparse::ParCsr get_par_csr(Reader& r) {
  sparse::ParCsr m;
  m.global_rows = r.scalar<std::int64_t>();
  m.global_cols = r.scalar<std::int64_t>();
  m.row_part = r.vec<long>();
  m.col_part = r.vec<long>();
  const std::uint64_t nranks = r.scalar<std::uint64_t>();
  m.ranks.reserve(nranks);
  for (std::uint64_t i = 0; i < nranks; ++i) {
    sparse::ParCsrRank rk;
    rk.first_row = r.scalar<std::int64_t>();
    rk.first_col = r.scalar<std::int64_t>();
    rk.diag = get_csr(r);
    rk.offd = get_csr(r);
    rk.col_map_offd = r.vec<long>();
    m.ranks.push_back(std::move(rk));
  }
  return m;
}

void put(Writer& w, const sparse::Halo& h) {
  w.scalar<std::uint64_t>(h.ranks.size());
  for (const sparse::RankHalo& rk : h.ranks) {
    w.vec(rk.recv_ranks);
    w.vec(rk.recv_counts);
    w.vec(rk.send_ranks);
    w.vec(rk.send_counts);
    w.vec(rk.send_idx);
    w.vec(rk.send_gids);
    w.vec(rk.recv_gids);
  }
}

sparse::Halo get_halo(Reader& r) {
  sparse::Halo h;
  const std::uint64_t n = r.scalar<std::uint64_t>();
  h.ranks.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    sparse::RankHalo rk;
    rk.recv_ranks = r.vec<int>();
    rk.recv_counts = r.vec<int>();
    rk.send_ranks = r.vec<int>();
    rk.send_counts = r.vec<int>();
    rk.send_idx = r.vec<int>();
    rk.send_gids = r.vec<long>();
    rk.recv_gids = r.vec<long>();
    h.ranks.push_back(std::move(rk));
  }
  return h;
}

void put(Writer& w, const amg::DistHierarchy& dh) {
  w.scalar<std::int32_t>(dh.nranks);
  w.scalar<std::uint64_t>(dh.levels.size());
  for (const amg::DistLevel& l : dh.levels) {
    put(w, l.A);
    put(w, l.halo);
    put(w, l.P);
    put(w, l.halo_P);
    put(w, l.R);
    put(w, l.halo_R);
    w.vec(l.perm);
  }
}

amg::DistHierarchy get_hierarchy(Reader& r) {
  amg::DistHierarchy dh;
  dh.nranks = r.scalar<std::int32_t>();
  const std::uint64_t n = r.scalar<std::uint64_t>();
  dh.levels.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    amg::DistLevel l;
    l.A = get_par_csr(r);
    l.halo = get_halo(r);
    l.P = get_par_csr(r);
    l.halo_P = get_halo(r);
    l.R = get_par_csr(r);
    l.halo_R = get_halo(r);
    l.perm = r.vec<int>();
    dh.levels.push_back(std::move(l));
  }
  if (!r.exhausted()) throw SimError("HierarchyCache: trailing bytes");
  return dh;
}

void put_key(Writer& w, const HierarchyCache::Key& key) {
  w.scalar<std::int64_t>(key.rows);
  w.scalar<std::int32_t>(key.nranks);
  w.scalar<double>(key.opts.strength_theta);
  w.scalar<std::int32_t>(static_cast<int>(key.opts.coarsen_algo));
  w.scalar<std::int32_t>(key.opts.interp_max_elements);
  w.scalar<std::int32_t>(key.opts.max_levels);
  w.scalar<std::int32_t>(key.opts.min_coarse_size);
  w.scalar<double>(key.opts.galerkin_prune_tol);
}

}  // namespace

HierarchyCache::HierarchyCache(std::filesystem::path dir,
                               std::uintmax_t max_bytes)
    : dir_(std::move(dir)), max_bytes_(max_bytes) {}

HierarchyCache* HierarchyCache::global() {
  // The mutex and sequence-counter members make the class immovable, so the
  // instance is emplaced in place inside the once-guarded initializer.
  static HierarchyCache* inst = []() -> HierarchyCache* {
    // Read-only env lookups; nothing in this process calls setenv().
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* v = std::getenv("COLLOM_HIER_CACHE"))
      if (std::string_view(v) == "0" || std::string_view(v) == "off")
        return nullptr;
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* dir = std::getenv("COLLOM_HIER_CACHE_DIR");
    std::uintmax_t max_bytes = 0;
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* m = std::getenv("COLLOM_HIER_CACHE_MAX_BYTES"))
      max_bytes = std::strtoull(m, nullptr, 10);
    static std::optional<HierarchyCache> cache;
    cache.emplace(dir && *dir ? dir : "hier-cache", max_bytes);
    return &*cache;
  }();
  return inst;
}

std::filesystem::path HierarchyCache::path_of(const Key& key) const {
  Writer w;
  w.scalar<std::uint32_t>(kFormatVersion);
  put_key(w, key);
  const std::uint64_t h = fnv1a(w.bytes().data(), w.bytes().size());
  char name[96];
  std::snprintf(name, sizeof name, "dist-r%ld-p%d-%016llx.chc", key.rows,
                key.nranks, static_cast<unsigned long long>(h));
  return dir_ / name;
}

std::optional<amg::DistHierarchy> HierarchyCache::load(const Key& key) {
  std::optional<amg::DistHierarchy> dh = load_file(key);
  util::MutexLock lk(mu_);
  if (dh)
    ++hits_;
  else
    ++misses_;
  return dh;
}

std::optional<amg::DistHierarchy> HierarchyCache::load_file(
    const Key& key) const {
  std::ifstream in(path_of(key), std::ios::binary);
  if (!in) return std::nullopt;

  try {
    // Fixed-size header first, then the payload in one bulk read (these
    // files reach hundreds of MB at paper scale — no byte iterators).
    Writer expect;
    put_key(expect, key);
    const std::size_t header_size =
        sizeof(std::uint64_t) + sizeof(std::uint32_t) + expect.bytes().size() +
        2 * sizeof(std::uint64_t);
    std::vector<unsigned char> head(header_size);
    in.read(reinterpret_cast<char*>(head.data()),
            static_cast<std::streamsize>(head.size()));
    if (in.gcount() != static_cast<std::streamsize>(head.size()))
      return std::nullopt;

    Reader r(head.data(), head.size());
    if (r.scalar<std::uint64_t>() != kMagic) return std::nullopt;
    if (r.scalar<std::uint32_t>() != kFormatVersion) return std::nullopt;
    // The content address already encodes the key; re-checking the header
    // copy guards against a hash collision or a renamed file.
    std::vector<unsigned char> header(expect.bytes().size());
    r.raw(header.data(), header.size());
    if (header != expect.bytes()) return std::nullopt;

    const std::uint64_t payload_size = r.scalar<std::uint64_t>();
    const std::uint64_t checksum = r.scalar<std::uint64_t>();
    if (payload_size >
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()))
      return std::nullopt;
    std::vector<unsigned char> payload(payload_size);
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
    if (in.gcount() != static_cast<std::streamsize>(payload.size()))
      return std::nullopt;
    if (in.peek() != std::ifstream::traits_type::eof())
      return std::nullopt;  // trailing bytes
    if (payload_checksum(payload.data(), payload.size()) != checksum)
      return std::nullopt;

    Reader body(payload.data(), payload.size());
    amg::DistHierarchy dh = get_hierarchy(body);
    if (dh.nranks != key.nranks ||
        (dh.num_levels() > 0 && dh.levels[0].n() != key.rows))
      return std::nullopt;
    return dh;
  } catch (const std::exception&) {
    return std::nullopt;  // corrupt / truncated / malformed: rebuild
  }
}

bool HierarchyCache::store(const Key& key, const amg::DistHierarchy& dh) {
  Writer body;
  put(body, dh);

  // Header and payload are written separately: re-buffering the payload
  // (hundreds of MB at paper scale) would double peak memory for nothing.
  Writer header;
  header.scalar<std::uint64_t>(kMagic);
  header.scalar<std::uint32_t>(kFormatVersion);
  put_key(header, key);
  header.scalar<std::uint64_t>(body.bytes().size());
  header.scalar<std::uint64_t>(
      payload_checksum(body.bytes().data(), body.bytes().size()));

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::filesystem::path dst = path_of(key);
  // The temp name must be unique per *writer*, not just per process: two
  // threads storing the same key from one pid used to share a temp path
  // and interleave their writes in it.  pid + per-instance sequence makes
  // every in-flight temp file distinct; the rename then publishes each
  // candidate whole, last writer winning.
  const std::uint64_t seq = store_seq_.fetch_add(1, std::memory_order_relaxed);
  const std::filesystem::path tmp = dst.string() + ".tmp-" +
                                    std::to_string(::getpid()) + "-" +
                                    std::to_string(seq);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(header.bytes().data()),
              static_cast<std::streamsize>(header.bytes().size()));
    out.write(reinterpret_cast<const char*>(body.bytes().data()),
              static_cast<std::streamsize>(body.bytes().size()));
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, dst, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  evict_over_cap(dst);
  return true;
}

void HierarchyCache::evict_over_cap(const std::filesystem::path& keep) {
  if (max_bytes_ == 0) return;
  struct Entry {
    std::filesystem::path path;
    std::uintmax_t size;
    std::filesystem::file_time_type mtime;
  };
  std::vector<Entry> entries;
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir_, ec)) {
    // Only completed entries are eviction candidates: the ".chc" filter
    // skips in-flight ".tmp-*" files (their extension is the temp suffix),
    // so eviction can never delete a file another writer is mid-write on.
    if (!de.is_regular_file(ec) || de.path().extension() != ".chc") continue;
    const std::uintmax_t size = de.file_size(ec);
    if (ec) continue;
    const auto mtime = de.last_write_time(ec);
    if (ec) continue;
    entries.push_back(Entry{de.path(), size, mtime});
    total += size;
  }
  if (total <= max_bytes_) return;
  // Oldest mtime first; the just-written entry is exempt even when it
  // alone exceeds the cap (evicting it would make the store a no-op and
  // the next run would rebuild and re-store it, thrashing forever).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    if (e.path == keep) continue;
    if (std::filesystem::remove(e.path, ec)) total -= e.size;
  }
}

}  // namespace harness
