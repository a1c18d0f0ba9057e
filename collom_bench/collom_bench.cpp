/// \file collom_bench.cpp
/// \brief End-to-end benchmark of the simulated locality-aware collectives.
///
/// One invocation runs one workload and prints one JSON object as its last
/// stdout line (`correct`, `attempted`, `failed`, `metrics`; every metric
/// carries its unit).  The binary drives the library only through public
/// calls and times them from outside, with `std::chrono::steady_clock`.
///
/// Run shape (closed loop, one process, engine width 1 by default):
///  1. Set-up, repeated kSetupReps times (set-up time is the median): build
///     the workload, construct the engine, then cold-init every method
///     inside `Engine::run`, each init bracketed by `sync_reset` and a
///     barrier and stamped by rank 0.  No PlanCache: a plan bound from a
///     cache gives different virtual times than one built in-run.
///  2. Virtual windows (last set-up only, same `Engine::run`): kWindows
///     windows per method of `sync_reset; exchange; barrier`; the max rank
///     clock after the exchange, median over windows, is the virtual time
///     of one exchange.
///  3. Warm-up: one untimed round.
///  4. Host rounds until the whole process has used its `--seconds` (at
///     least kMinRounds): per method one block
///     `sync_reset; stamp; B x exchange; barrier; stamp`.  Payloads are
///     invalidated before and verified after every block, outside the
///     stamps.
///
/// `--trace=<file>` keeps bench-side spans in memory, writes them as Chrome
/// Trace Event JSON at exit, and reports the per-layer metrics instead of
/// the end-to-end ones.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amg/distribute.hpp"
#include "amg/hierarchy.hpp"
#include "harness/exchange.hpp"
#include "model/perf_model.hpp"
#include "mpix/alltoall.hpp"
#include "patterns/pattern.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/fault.hpp"
#include "sparse/stencil.hpp"
#include "util/alloc_hook.hpp"

namespace {

using simmpi::Context;
using simmpi::Task;
using Clock = std::chrono::steady_clock;

// Set-up repetitions; setup_s is their median.  The first set-up of a
// process is 25-40 % slower (cold allocator) and lands above the median.
constexpr int kSetupReps = 5;
constexpr int kWindows = 16;    // virtual windows per method
constexpr int kMinRounds = 100;  // so 10 round samples lie below p10
constexpr int kMaxRounds = 20000;  // sample storage, reserved up front
constexpr int kMethods = 3;

/// Methods are reported by role, so every workload prints the same metric
/// names: the unaggregated baseline, one-message-per-region-pair
/// aggregation, and the fully optimized variant (dedup for the neighbor
/// collectives, Bruck for the dense ones).
constexpr const char* kRoles[kMethods] = {"standard", "aggregated",
                                          "optimized"};

double wall() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// ---- workloads ---------------------------------------------------------

enum class Kind { amg, sparse, dense };

struct Spec {
  const char* name;
  Kind kind;
  int nranks;
  int ranks_per_region;
  int block;                       ///< B: exchanges per host-timed block
  int grid = 0;                    ///< amg: grid is grid x grid
  const char* pattern = nullptr;   ///< sparse / dense
  int values = 0;
  int degree = 0;
  bool tree = false;  ///< 4 leaf switches under a root, 4:1 taper, link cap
  bool low_overheads = false;  ///< network-bound host overheads
  double drop = 0.0;  ///< msg_drop rate; reliability is on when > 0
};

// Why each workload exists is recorded in README.md.
constexpr Spec kSpecs[] = {
    {.name = "amg_spmv", .kind = Kind::amg, .nranks = 256,
     .ranks_per_region = 16, .block = 1, .grid = 256},
    {.name = "halo_large", .kind = Kind::sparse, .nranks = 256,
     .ranks_per_region = 16, .block = 2, .pattern = "stencil3d27",
     .values = 512},
    {.name = "alltoallv_taper", .kind = Kind::dense, .nranks = 256,
     .ranks_per_region = 16, .block = 4, .pattern = "random_sparse",
     .values = 8, .degree = 32, .tree = true, .low_overheads = true},
    {.name = "faulty_sparse", .kind = Kind::sparse, .nranks = 512,
     .ranks_per_region = 16, .block = 4, .pattern = "random_sparse",
     .values = 32, .degree = 8, .tree = true, .drop = 0.05},
};

const char* method_name(Kind k, int m) {
  switch (k) {
    case Kind::amg:
    case Kind::sparse: return mpix::to_string(mpix::kAllMethods[m]);
    case Kind::dense: return mpix::to_string(mpix::kAllAlltoallMethods[m]);
  }
  return "?";
}

struct Args {
  const Spec* spec = nullptr;
  unsigned seed = 1;
  double seconds = 0.0;  ///< whole-run budget; required
  std::string trace;
  int sim_threads = 1;
  bool quick = false;  ///< COLLOM_BENCH_QUICK: 64 ranks, 4 rounds
};

simmpi::Machine make_machine(const Spec& s, const Args& a) {
  const int nranks = a.quick ? 64 : s.nranks;
  const int rpr = a.quick ? 4 : s.ranks_per_region;
  simmpi::Machine m = simmpi::Machine::with_region_size(nranks, rpr);
  if (!s.tree) return m;
  simmpi::MachineConfig mc = m.config();
  mc.switch_levels = {{.radix = m.num_nodes() / 4, .taper = 4.0},
                      {.radix = 4, .taper = 1.0}};
  return simmpi::Machine(mc);
}

simmpi::CostParams make_cost(const Spec& s) {
  simmpi::CostParams c = simmpi::CostParams::lassen();
  if (s.tree) {
    c.use_link_cap = true;
    c.link_msg_bytes = 256.0;
  }
  if (s.low_overheads) {
    // As in bench_link_taper: the dense standard method posts O(P)
    // requests per rank, and Lassen-default overheads would hide the link
    // contention behind the posting CPU.
    c.send_overhead = 5.0e-8;
    c.recv_overhead = 5.0e-8;
    c.queue_search = 0.0;
  }
  return c;
}

// ---- tracing -------------------------------------------------------------

/// Bench-side spans, kept in memory and written as Chrome Trace Event JSON.
/// Spans are recorded from stamps taken by the main thread and by rank 0's
/// program (which runs only while the main thread waits in Engine::run),
/// so they all lie on one timeline.  Parent -1 is the top level.
class Tracer {
 public:
  struct Span {
    const char* name;
    const char* layer;
    double t0, t1;
    int parent;
    int nargs = 0;
    std::pair<const char*, double> args[4] = {};
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  int add(const char* name, const char* layer, double t0, double t1,
          int parent) {
    if (!on_) return -1;
    spans_.push_back(Span{
        .name = name, .layer = layer, .t0 = t0, .t1 = t1, .parent = parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Close a span added before its end was stamped.
  void end(int id, double t1) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = t1;
  }
  void arg(int id, const char* key, double v) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    if (s.nargs < 4) s.args[s.nargs++] = {key, v};
  }

  /// Share of [t0, t1] covered by top-level spans.
  double coverage(double t0, double t1) const {
    double covered = 0.0;
    for (const Span& s : spans_)
      if (s.parent < 0) covered += s.t1 - s.t0;
    return t1 > t0 ? covered / (t1 - t0) : 0.0;
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d",
                   i ? ",\n" : "", s.name, s.layer, s.t0 * 1e6,
                   (s.t1 - s.t0) * 1e6, i, s.parent);
      for (int a = 0; a < s.nargs; ++a)
        std::fprintf(f, ",\"%s\":%.17g", s.args[a].first, s.args[a].second);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  std::vector<Span> spans_;
};

/// Span names per role (kRoles order).
constexpr const char* kInitSpans[kMethods] = {
    "mpix.init.standard", "mpix.init.aggregated", "mpix.init.optimized"};
constexpr const char* kBlockSpans[kMethods] = {
    "mpix.block.standard", "mpix.block.aggregated", "mpix.block.optimized"};

// ---- one rank's bound collective ----------------------------------------

/// One rank's collective for one method, bound to its buffers.
class Bound {
 public:
  virtual ~Bound() = default;
  /// One exchange (for amg_spmv: every level's halo, back to back).
  virtual Task<> exchange(Context& ctx) = 0;
  /// Invalidate the receive side so the next exchange must redeliver.
  virtual void next_epoch() = 0;
  /// Mismatched received values (0 = delivered correctly).
  virtual long verify() const = 0;
  std::vector<mpix::NeighborStats> stats;  ///< per level (1 for patterns)
};

/// Value of global row `g` in epoch `e` (exact in double at these sizes).
double x_value(long g, long e) {
  return 0.5 * static_cast<double>(g) + 1.0 + static_cast<double>(e);
}

class AmgBound final : public Bound {
 public:
  AmgBound(const amg::DistHierarchy& dh, int rank) : dh_(dh), rank_(rank) {
    x_.resize(dh.levels.size());
    for (std::size_t l = 0; l < dh.levels.size(); ++l) {
      const auto& part = dh.levels[l].A.row_part;
      x_[l].resize(static_cast<std::size_t>(part[rank + 1] - part[rank]));
    }
  }

  Task<> init(Context& ctx, harness::Protocol protocol) {
    const harness::ExchangeOptions xo{};
    for (const auto& lvl : dh_.levels) {
      auto ex = co_await harness::make_halo_exchange(
          ctx, ctx.world(), protocol, lvl.halo.ranks[rank_], xo);
      stats.push_back(ex->stats());
      ex_.push_back(std::move(ex));
    }
    next_epoch();
  }

  Task<> exchange(Context& ctx) override {
    for (std::size_t l = 0; l < ex_.size(); ++l) {
      co_await ex_[l]->start(ctx, x_[l]);
      co_await ex_[l]->wait(ctx);
    }
  }
  void next_epoch() override {
    ++epoch_;
    for (std::size_t l = 0; l < x_.size(); ++l) {
      const long first = dh_.levels[l].A.row_part[rank_];
      for (std::size_t i = 0; i < x_[l].size(); ++i)
        x_[l][i] = x_value(first + static_cast<long>(i), epoch_);
    }
  }
  long verify() const override {
    long bad = 0;
    for (std::size_t l = 0; l < ex_.size(); ++l) {
      const auto xe = ex_[l]->x_ext();
      const auto& gids = dh_.levels[l].halo.ranks[rank_].recv_gids;
      for (std::size_t k = 0; k < xe.size(); ++k)
        bad += xe[k] != x_value(gids[k], epoch_);
    }
    return bad;
  }

 private:
  const amg::DistHierarchy& dh_;
  int rank_;
  long epoch_ = 0;
  std::vector<std::vector<double>> x_;
  std::vector<std::unique_ptr<harness::HaloExchange>> ex_;
};

class PatternBound final : public Bound {
 public:
  PatternBound(const patterns::Workload& wl, int rank)
      : wl_(wl), rank_(rank), buf_(patterns::make_buffers(wl, rank)) {}

  Task<> init(Context& ctx, Kind kind, int m, mpix::Options opts) {
    if (kind == Kind::dense) {
      mpix::AlltoallvArgs args = patterns::dense_args_view(wl_, rank_, buf_);
      coll_ = co_await mpix::alltoallv_init(ctx, ctx.world(), std::move(args),
                                            mpix::kAllAlltoallMethods[m],
                                            opts);
    } else {
      const patterns::RankExchange& ex = wl_.ranks[rank_];
      simmpi::DistGraph g = co_await simmpi::dist_graph_create_adjacent(
          ctx, ctx.world(), ex.sources, ex.destinations,
          simmpi::GraphAlgo::handshake);
      mpix::AlltoallvArgs args = patterns::args_view(wl_, rank_, buf_);
      coll_ = co_await mpix::neighbor_alltoallv_init(
          ctx, g, std::move(args), mpix::kAllMethods[m], opts);
    }
    stats.push_back(coll_->stats());
  }

  Task<> exchange(Context& ctx) override {
    co_await coll_->start(ctx);
    co_await coll_->wait(ctx);
  }
  void next_epoch() override { patterns::clear_recv(buf_); }
  long verify() const override {
    return patterns::verify_recv(wl_, rank_, buf_);
  }

 private:
  const patterns::Workload& wl_;
  int rank_;
  patterns::RankBuffers buf_;
  std::unique_ptr<mpix::NeighborAlltoallv> coll_;
};

// ---- the run -------------------------------------------------------------

/// Engine counters of one rank over one virtual window.
struct WindowCounters {
  double msgs = 0, net_msgs = 0, net_bytes = 0;
  double retransmits = 0, drops = 0;
  double link_busy = 0, link_backlog = 0;
};

/// One generated workload on one engine, plus every per-rank result slot
/// (ranks write only their own slots, so any engine width is race-free).
class Run {
 public:
  Run(const Args& a, Tracer& tr, bool init_only, double deadline)
      : a_(a), s_(*a.spec), tr_(tr), init_only_(init_only),
        deadline_(deadline) {}
  // The rank programs hold `this`.
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  /// Set-up: generate the workload and construct the engine.
  void generate() {
    const double g0 = wall();
    setup_span_ = tr_.add("setup", "bench", g0, g0, -1);
    const simmpi::Machine machine = make_machine(s_, a_);
    if (s_.kind == Kind::amg) {
      const int n = a_.quick ? 64 : s_.grid;
      sparse::Csr A = sparse::paper_problem(n, n);
      const double t1 = wall();
      amg::Options o;
      o.threads = 1;
      amg::Hierarchy h = amg::Hierarchy::build(std::move(A), o);
      const double t2 = wall();
      levels_ = h.num_levels();
      op_complexity_ = h.operator_complexity();
      dh_.emplace(amg::distribute_hierarchy(h, machine.num_ranks()));
      const double t3 = wall();
      tr_.add("sparse.paper_problem", "sparse", g0, t1, setup_span_);
      tr_.add("amg.build", "amg", t1, t2, setup_span_);
      tr_.add("amg.distribute", "amg", t2, t3, setup_span_);
      for (const auto& lvl : dh_->levels)
        for (const auto& rh : lvl.halo.ranks)
          edges_ += static_cast<long>(rh.send_ranks.size());
    } else {
      patterns::PatternParams p;
      p.values = s_.values;
      p.seed = a_.seed;
      if (s_.degree > 0) p.degree = s_.degree;
      wl_ = patterns::generate(s_.pattern, machine, p);
      tr_.add("patterns.generate", "patterns", g0, wall(), setup_span_);
      for (const auto& rx : wl_.ranks)
        edges_ += static_cast<long>(rx.destinations.size());
    }
    const double g1 = wall();
    eng_ = std::make_unique<simmpi::Engine>(
        machine, make_cost(s_),
        simmpi::Engine::Options{.threads = a_.sim_threads});
    if (s_.drop > 0.0) {
      simmpi::FaultPlan plan;
      plan.seed = a_.seed;
      plan.events.push_back(
          {.kind = simmpi::FaultSpec::Kind::msg_drop, .rate = s_.drop});
      eng_->set_fault_plan(std::move(plan));
    }
    const double g2 = wall();
    tr_.add("simmpi.engine", "simmpi", g1, g2, setup_span_);
    generate_s_ = g1 - g0;
    engine_s_ = g2 - g1;
    setup_t0_ = g0;

    const int p = eng_->machine().num_ranks();
    for (int m = 0; m < kMethods; ++m) {
      init_sim_[m].assign(p, 0.0);
      nstats_[m].assign(p, {});
      win_clock_[m].assign(static_cast<std::size_t>(kWindows) * p, 0.0);
      win_[m].assign(static_cast<std::size_t>(kWindows) * p, {});
      blocks_[m].reserve(kMaxRounds);
    }
    failed_.assign(p, 0);
  }

  /// Run every phase inside one Engine::run.
  void execute() {
    run_t0_ = wall();
    eng_->run([this](Context& ctx) { return program(ctx); });
    run_t1_ = wall();
  }

  /// Record the run's stamps as spans (generation spans were recorded by
  /// generate()).  Top level: setup, then either the init-only run's exit
  /// or the windows / warm-up / host rounds of the measured run.
  void trace_spans() {
    const double s1 = setup_t1();
    tr_.end(setup_span_, s1);
    tr_.add("simmpi.spawn", "simmpi", run_t0_, t_init_[0][0], setup_span_);
    for (int m = 0; m < kMethods; ++m) {
      const int id = tr_.add(kInitSpans[m], "mpix", t_init_[m][0],
                             t_init_[m][1], setup_span_);
      tr_.arg(id, "sim_init_us", sim_init_seconds(m) * 1e6);
      tr_.arg(id, "global_msgs",
              static_cast<double>(total_stats(m).global_msgs));
    }
    if (init_only_) {
      tr_.add("simmpi.run_exit", "simmpi", s1, run_t1_, -1);
      return;
    }
    const int w = tr_.add("windows", "simmpi", s1, t_phase_[0], -1);
    for (int m = 0; m < kMethods; ++m)
      tr_.arg(w, kRoles[m], sim_seconds(m) * 1e6);
    tr_.add("warmup", "bench", t_phase_[0], t_phase_[1], -1);
    const int h = tr_.add("host_rounds", "bench", t_phase_[1], t_phase_[2], -1);
    tr_.arg(h, "rounds", rounds());
    for (int j = 0; j < rounds(); ++j)
      for (int m = 0; m < kMethods; ++m) {
        const auto [t0, t1] = blocks_[m][static_cast<std::size_t>(j)];
        tr_.arg(tr_.add(kBlockSpans[m], "mpix", t0, t1, h), "round", j);
      }
    tr_.add("simmpi.run_exit", "simmpi", t_phase_[2], run_t1_, -1);
  }

  // -- results ---------------------------------------------------------
  /// Set-up ends when the last cold init's closing barrier completes.
  double setup_t1() const { return t_init_[kMethods - 1][1]; }
  double setup_seconds() const { return setup_t1() - setup_t0_; }
  double init_seconds(int m) const { return t_init_[m][1] - t_init_[m][0]; }
  /// Launching the rank programs up to the first init bracket.
  double spawn_seconds() const { return t_init_[0][0] - run_t0_; }
  double generate_seconds() const { return generate_s_; }
  double engine_seconds() const { return engine_s_; }
  const simmpi::Engine& engine() const { return *eng_; }
  int levels() const { return levels_; }
  double op_complexity() const { return op_complexity_; }
  long edges() const { return edges_; }
  int rounds() const { return static_cast<int>(blocks_[0].size()); }
  std::vector<double> block_seconds(int m) const {
    std::vector<double> s;
    s.reserve(blocks_[m].size());
    for (const auto& [t0, t1] : blocks_[m]) s.push_back(t1 - t0);
    return s;
  }
  std::uint64_t allocs() const { return allocs_; }
  long attempted_exchanges() const { return attempted_; }
  /// Exchanges that failed verification, counted once per rank that saw a
  /// bad value (an upper bound, capped at the attempts).
  long failed_exchanges() const {
    return std::min(attempted_,
                    std::accumulate(failed_.begin(), failed_.end(), 0L));
  }

  /// Virtual seconds of one exchange: max rank clock, median over windows
  /// (under message drops a window takes one, two or more retransmit
  /// timeouts, so the mean would follow the rare long chains).
  double sim_seconds(int m) const {
    const std::size_t p = nstats_[m].size();
    std::vector<double> per_window(kWindows);
    for (int k = 0; k < kWindows; ++k) {
      const auto* w = win_clock_[m].data() + k * p;
      per_window[k] = *std::max_element(w, w + p);
    }
    return quantile(std::move(per_window), 0.5);
  }
  double sim_init_seconds(int m) const {
    return *std::max_element(init_sim_[m].begin(), init_sim_[m].end());
  }
  /// Window counters summed over ranks, mean over windows (backlog: max
  /// over ranks, mean over windows).
  WindowCounters counters(int m) const {
    WindowCounters c;
    const std::size_t p = nstats_[m].size();
    for (int k = 0; k < kWindows; ++k) {
      double backlog = 0.0;
      for (std::size_t r = 0; r < p; ++r) {
        const WindowCounters& w = win_[m][k * p + r];
        c.msgs += w.msgs;
        c.net_msgs += w.net_msgs;
        c.net_bytes += w.net_bytes;
        c.retransmits += w.retransmits;
        c.drops += w.drops;
        c.link_busy += w.link_busy;
        backlog = std::max(backlog, w.link_backlog);
      }
      c.link_backlog += backlog;
    }
    for (double* v : {&c.msgs, &c.net_msgs, &c.net_bytes, &c.retransmits,
                      &c.drops, &c.link_busy, &c.link_backlog})
      *v /= kWindows;
    return c;
  }
  /// NeighborStats summed over ranks and levels (max for the message size).
  mpix::NeighborStats total_stats(int m) const {
    mpix::NeighborStats t;
    for (const auto& levels : nstats_[m])
      for (const auto& s : levels) {
        t.local_msgs += s.local_msgs;
        t.global_msgs += s.global_msgs;
        t.global_values += s.global_values;
        t.max_global_msg_values =
            std::max(t.max_global_msg_values, s.max_global_msg_values);
      }
    return t;
  }
  /// model::estimate_collective_time summed over levels.
  double model_seconds(int m) const {
    const std::size_t p = nstats_[m].size();
    const std::size_t nlev = nstats_[m][0].size();
    std::vector<mpix::NeighborStats> per_rank(p);
    double t = 0.0;
    for (std::size_t l = 0; l < nlev; ++l) {
      for (std::size_t r = 0; r < p; ++r) per_rank[r] = nstats_[m][r][l];
      t += model::estimate_collective_time(eng_->model(), per_rank);
    }
    return t;
  }

 private:
  Task<std::unique_ptr<Bound>> init(Context& ctx, int m) {
    if (s_.kind == Kind::amg) {
      auto b = std::make_unique<AmgBound>(*dh_, ctx.rank());
      co_await b->init(ctx, harness::protocol_of(mpix::kAllMethods[m]));
      co_return b;
    }
    auto b = std::make_unique<PatternBound>(wl_, ctx.rank());
    mpix::Options opts;
    if (s_.drop > 0.0) {
      opts.reliability.enabled = true;
      opts.reliability.timeout = 5e-4;
    }
    co_await b->init(ctx, s_.kind, m, opts);
    co_return b;
  }

  void stamp(Context& ctx, double& t) const {
    if (ctx.rank() == 0) t = wall();
  }

  // Every bracket opens with sync_reset and closes with a plain barrier.
  // Two sync_resets with no communication between them let the last rank
  // to leave the first pass the second within the same engine phase; its
  // two leaves then count once, the engine loses track of the reset
  // generation, and NIC and link queues stop being drained (observed on
  // faulty_sparse; README.md).  A barrier between them rules that out.
  Task<> program(Context& ctx) {
    simmpi::Engine& eng = ctx.engine();
    const int r = ctx.rank();
    const std::size_t p = static_cast<std::size_t>(eng.machine().num_ranks());
    std::unique_ptr<Bound> b[kMethods];

    // 1. Cold inits.
    for (int m = 0; m < kMethods; ++m) {
      co_await eng.sync_reset(ctx);
      stamp(ctx, t_init_[m][0]);
      b[m] = co_await init(ctx, m);
      init_sim_[m][r] = ctx.now();
      nstats_[m][r] = b[m]->stats;
      co_await simmpi::coll::barrier(ctx, ctx.world());
      stamp(ctx, t_init_[m][1]);
    }
    if (init_only_) co_return;

    // 2. Virtual windows.  Message counts and retransmits are settled when
    // the exchange completes; link and drop charges happen at commit, so
    // they are read after the closing barrier (zero-byte control messages
    // are neither charged on links nor dropped).
    for (int m = 0; m < kMethods; ++m)
      for (int k = 0; k < kWindows; ++k) {
        b[m]->next_epoch();
        co_await eng.sync_reset(ctx);
        co_await b[m]->exchange(ctx);
        const std::size_t slot = static_cast<std::size_t>(k) * p + r;
        win_clock_[m][slot] = ctx.now();
        WindowCounters& w = win_[m][slot];
        const auto& st = eng.stats(r);
        for (const auto& t : st.tier) w.msgs += static_cast<double>(t.msgs);
        const auto& net = st.tier[static_cast<int>(simmpi::Locality::network)];
        w.net_msgs = static_cast<double>(net.msgs);
        w.net_bytes = static_cast<double>(net.bytes);
        w.retransmits = static_cast<double>(st.faults.retransmits);
        co_await simmpi::coll::barrier(ctx, ctx.world());
        w.drops = static_cast<double>(st.faults.drops);
        if (!st.link.empty()) {
          w.link_busy = st.link[0].busy_seconds;
          w.link_backlog = st.link[0].max_backlog_seconds;
        }
        check(r, b[m]->verify(), 1);
      }
    stamp(ctx, t_phase_[0]);

    // 3-4. Warm-up round (j = -1), then host rounds until the deadline,
    // but at least kMinRounds.  Rank 0 sets stop_ between a round's last
    // closing barrier and the next opening one, so every rank reads the
    // same value right after that opening barrier.
    for (int j = -1;; ++j) {
      for (int m = 0; m < kMethods; ++m) {
        b[m]->next_epoch();
        co_await eng.sync_reset(ctx);
        if (stop_) co_return;
        if (j == 0 && m == 0) {
          stamp(ctx, t_phase_[1]);
          if (r == 0) allocs_ = util::alloc_hook_count();
        }
        double t0 = 0.0, t1 = 0.0;
        stamp(ctx, t0);
        for (int i = 0; i < s_.block; ++i) co_await b[m]->exchange(ctx);
        co_await simmpi::coll::barrier(ctx, ctx.world());
        stamp(ctx, t1);
        if (r == 0 && j >= 0) blocks_[m].emplace_back(t0, t1);
        check(r, b[m]->verify(), s_.block);
      }
      if (r == 0 && j >= 0) {
        const int done = j + 1;
        const bool out_of_time = done >= kMinRounds && wall() >= deadline_;
        if ((a_.quick ? done >= 4 : out_of_time) || done >= kMaxRounds) {
          allocs_ = util::alloc_hook_count() - allocs_;
          stamp(ctx, t_phase_[2]);
          stop_ = true;
        }
      }
    }
  }

  /// Count a verified block of `n` exchanges: rank 0 counts attempts, and
  /// every rank counts the exchanges of blocks where it saw a bad value.
  void check(int r, long bad, int n) {
    if (r == 0) attempted_ += n;
    if (bad != 0) failed_[r] += n;
  }

  const Args& a_;
  const Spec& s_;
  Tracer& tr_;
  bool init_only_;
  double deadline_;  ///< wall() at which host rounds stop
  int setup_span_ = -1;

  std::optional<amg::DistHierarchy> dh_;
  patterns::Workload wl_;
  std::unique_ptr<simmpi::Engine> eng_;
  int levels_ = 0;
  double op_complexity_ = 0.0;
  long edges_ = 0;

  double generate_s_ = 0.0, engine_s_ = 0.0, setup_t0_ = 0.0;
  double run_t0_ = 0.0, run_t1_ = 0.0;
  double t_init_[kMethods][2] = {};  ///< per cold init: start, end
  double t_phase_[3] = {};  ///< windows end, host rounds start, end
  bool stop_ = false;
  std::uint64_t allocs_ = 0;
  long attempted_ = 0;

  std::vector<double> init_sim_[kMethods];
  std::vector<std::vector<mpix::NeighborStats>> nstats_[kMethods];
  std::vector<double> win_clock_[kMethods];
  std::vector<WindowCounters> win_[kMethods];
  std::vector<std::pair<double, double>> blocks_[kMethods];  ///< start, end
  std::vector<long> failed_;  ///< per rank
};

// ---- report --------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }
  void add_roles(const char* stem, const double (&v)[kMethods],
                 const char* unit) {
    for (int m = 0; m < kMethods; ++m)
      add(std::string(stem) + "." + kRoles[m], v[m], unit);
  }
  void print(bool correct, long attempted, long failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string val(eq == std::string_view::npos ? std::string_view{}
                                                       : arg.substr(eq + 1));
    if (key == "--workload") {
      for (const Spec& s : kSpecs)
        if (val == s.name) a.spec = &s;
      if (!a.spec) return false;
    } else if (key == "--seed") {
      a.seed = static_cast<unsigned>(std::strtoul(val.c_str(), nullptr, 10));
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = val;
    } else if (key == "--sim-threads") {
      a.sim_threads = std::atoi(val.c_str());
    } else {
      return false;
    }
  }
  const char* q = std::getenv("COLLOM_BENCH_QUICK");
  a.quick = q != nullptr && *q != '\0' && *q != '0';
  return a.spec != nullptr && a.seconds > 0.0 && a.sim_threads >= 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: collom_bench --workload=<name> --seconds=<s> "
               "[--seed=<n>] [--trace=<file>] [--sim-threads=<n>]\n"
               "workloads:");
  for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return usage();
  const Spec& spec = *a.spec;
  const double t_start = wall();
  Tracer tr(!a.trace.empty());

  // Set-up samples, one per repetition.
  std::vector<double> setup_s, generate_s, engine_s, spawn_s;
  std::vector<double> init_s[kMethods];
  std::unique_ptr<Run> run;
  // The whole run fits --seconds: host rounds stop early enough to leave
  // time for the longest exit-and-teardown seen after an earlier set-up.
  double tail = 0.0;
  try {
    for (int rep = 0; rep < kSetupReps; ++rep) {
      const bool last = rep + 1 == kSetupReps;
      run = std::make_unique<Run>(a, tr, !last, t_start + a.seconds - tail);
      run->generate();
      run->execute();
      run->trace_spans();
      setup_s.push_back(run->setup_seconds());
      generate_s.push_back(run->generate_seconds());
      engine_s.push_back(run->engine_seconds());
      spawn_s.push_back(run->spawn_seconds());
      for (int m = 0; m < kMethods; ++m)
        init_s[m].push_back(run->init_seconds(m));
      if (!last) {
        const double s1 = run->setup_t1();
        const double d0 = wall();
        run.reset();
        const double d1 = wall();
        tr.add("teardown", "bench", d0, d1, -1);
        tail = std::max(tail, d1 - s1);
      }
    }
  } catch (const std::exception& e) {
    // A SimError (deadlock, retry exhaustion, bad arguments) cuts the run
    // short: every exchange counts as failed.
    std::fprintf(stderr, "collom_bench: %s: %s\n", spec.name, e.what());
    const long attempted = run ? std::max(1L, run->attempted_exchanges()) : 1;
    Report{}.print(false, attempted, attempted);
    return 1;
  }

  const Run& R = *run;
  const int rounds = R.rounds();
  const int block = spec.block;
  std::vector<double> round_s(static_cast<std::size_t>(rounds), 0.0);
  double iter_ms[kMethods], sim_us[kMethods], sim_init_us[kMethods];
  double init_med[kMethods], gmsgs[kMethods], gvalues[kMethods],
      gmax[kMethods], retrans[kMethods], useful[kMethods], busy_us[kMethods],
      backlog_us[kMethods], rel_err[kMethods];
  double msgs_per_round = 0.0, net_bytes = 0.0, drops = 0.0;
  for (int m = 0; m < kMethods; ++m) {
    const auto& bs = R.block_seconds(m);
    for (int j = 0; j < rounds; ++j) round_s[j] += bs[j] / block;
    iter_ms[m] = quantile(bs, 0.5) / block * 1e3;
    init_med[m] = quantile(init_s[m], 0.5);
    const double sim = R.sim_seconds(m);
    sim_us[m] = sim * 1e6;
    sim_init_us[m] = R.sim_init_seconds(m) * 1e6;
    const mpix::NeighborStats st = R.total_stats(m);
    const WindowCounters c = R.counters(m);
    gmsgs[m] = static_cast<double>(st.global_msgs);
    gvalues[m] = static_cast<double>(st.global_values);
    gmax[m] = static_cast<double>(st.max_global_msg_values);
    retrans[m] = c.retransmits;
    // Useful share of the network messages actually posted (acks and
    // retransmits are the waste); 1 when reliability is off.
    useful[m] = c.net_msgs > 0.0 ? gmsgs[m] / c.net_msgs : 1.0;
    busy_us[m] = c.link_busy * 1e6;
    backlog_us[m] = c.link_backlog * 1e6;
    rel_err[m] = std::abs(R.model_seconds(m) - sim) / sim;
    msgs_per_round += c.msgs;
    net_bytes += c.net_bytes;
    drops += c.drops;
  }
  const double p50_s = quantile(round_s, 0.5);
  const double speedup = sim_us[0] / sim_us[2];
  const long attempted = R.attempted_exchanges();
  const long failed = R.failed_exchanges();
  const auto arena_chunks =
      static_cast<double>(R.engine().arena_stats().chunks);
  const double allocs_per_round = static_cast<double>(R.allocs()) / rounds;
  const auto edges = static_cast<double>(R.edges());
  const double levels = R.levels(), op_complexity = R.op_complexity();

  std::printf("workload %s (seed %u, %d ranks, B=%d): %d host rounds, "
              "%ld exchanges verified\n",
              spec.name, a.seed, R.engine().machine().num_ranks(), block,
              rounds, attempted);
  std::printf("%-11s %-16s %12s %12s %12s %12s\n", "role", "method",
              "sim_us", "sim_init_us", "host_ms", "init_s");
  for (int m = 0; m < kMethods; ++m)
    std::printf("%-11s %-16s %12.4f %12.4f %12.4f %12.6f\n", kRoles[m],
                method_name(spec.kind, m), sim_us[m], sim_init_us[m],
                iter_ms[m], init_med[m]);
  // The virtual times in full, for e2e_compare.py's exact check.
  std::printf("virtual {\"seed\": %u", a.seed);
  for (int m = 0; m < kMethods; ++m)
    std::printf(", \"sim_us.%s\": %.17g, \"sim_init_us.%s\": %.17g",
                kRoles[m], sim_us[m], kRoles[m], sim_init_us[m]);
  std::printf("}\n");

  const double d0 = wall();
  run.reset();
  const double t_end = wall();
  tr.add("teardown", "bench", d0, t_end, -1);

  Report rep;
  if (!tr.on()) {
    rep.add("host_ms_per_round.p10", quantile(round_s, 0.1) * 1e3, "ms");
    rep.add("setup_s", quantile(setup_s, 0.5), "s");
    rep.add("peak_rss_mb", [] {
      rusage ru{};
      getrusage(RUSAGE_SELF, &ru);
      return static_cast<double>(ru.ru_maxrss) / 1024.0;
    }(), "MB");
    rep.add("sim_speedup", speedup, "x");
  } else {
    rep.add("setup.generate_s", quantile(generate_s, 0.5), "s");
    rep.add("setup.engine_s", quantile(engine_s, 0.5), "s");
    rep.add("simmpi.spawn_s", quantile(spawn_s, 0.5), "s");
    rep.add_roles("mpix.init_s", init_med, "s");
    rep.add_roles("mpix.iter_ms", iter_ms, "ms");
    rep.add("simmpi.ns_per_msg", p50_s * 1e9 / msgs_per_round, "ns");
    rep.add("simmpi.msgs_per_round", msgs_per_round, "count");
    rep.add("simmpi.net_bytes_per_round", net_bytes, "B");
    rep.add("simmpi.drops_per_round", drops, "count");
    rep.add_roles("mpix.global_msgs", gmsgs, "count");
    rep.add_roles("mpix.global_values", gvalues, "count");
    rep.add_roles("mpix.max_global_msg_values", gmax, "count");
    rep.add_roles("mpix.retransmits", retrans, "count");
    rep.add_roles("mpix.useful_msg_frac", useful, "ratio");
    rep.add_roles("simmpi.sim_us", sim_us, "sim_us");
    rep.add_roles("simmpi.sim_init_us", sim_init_us, "sim_us");
    rep.add_roles("simmpi.link_busy_us", busy_us, "sim_us");
    rep.add_roles("simmpi.link_backlog_us", backlog_us, "sim_us");
    rep.add_roles("model.rel_err", rel_err, "ratio");
    rep.add("util.allocs_per_round", allocs_per_round, "count");
    rep.add("util.arena_chunks", arena_chunks, "count");
    rep.add("gen.edges", edges, "count");
    rep.add("amg.levels", levels, "count");
    rep.add("amg.operator_complexity", op_complexity, "x");
    rep.add("trace.host_ms_per_round_p10", quantile(round_s, 0.1) * 1e3, "ms");
    rep.add("trace.host_ms_per_round_p50", p50_s * 1e3, "ms");
    rep.add("trace.host_ms_per_round_p75", quantile(round_s, 0.75) * 1e3, "ms");
    rep.add("trace.span_coverage", tr.coverage(t_start, t_end), "ratio");
    if (!tr.write(a.trace)) {
      std::fprintf(stderr, "collom_bench: cannot write %s\n", a.trace.c_str());
      return 1;
    }
  }
  const bool correct = failed == 0;
  rep.print(correct, attempted, failed);
  return correct ? 0 : 1;
}
