#pragma once
/// \file bench_common.hpp
/// \brief The figure driver and shared helpers of the figure-reproduction
/// benchmarks.
///
/// Every binary regenerates one figure of the paper: it computes the data
/// series on the simulated machine, lists them as rows for `run` — each
/// row one google-benchmark result `family/args.../iterations:1` carrying
/// counters (`sim_seconds` etc. — wall time of these benchmarks is
/// meaningless; the simulator's virtual seconds are the measurement) and a
/// label — and prints a paper-style table.  See docs/BENCHMARKS.md for the
/// figure-by-figure map and how to read the emitted BENCH_*.json.
///
/// Knobs (all leave the measured virtual times bit-identical):
///  * `COLLOM_BENCH_QUICK=1` (the `run_benches_quick` target / CI smoke
///    job) caps every sweep at 256 simulated ranks and shrinks the
///    fixed-size problems to match, so each binary finishes in seconds
///    while still exercising the full measurement pipeline;
///  * `--sim-threads=N` / `COLLOM_SIM_THREADS=N` sets the engine's worker
///    count (wall-time-only; the simulated schedule is deterministic);
///  * `COLLOM_BUILD_THREADS=N` sets the hierarchy *construction* width
///    (defaults from COLLOM_SIM_THREADS; built hierarchies are
///    bit-identical for every width).
///
/// Each binary builds the hierarchies it measures in process
/// (harness::paper_dist_hierarchy) and holds them only while it measures
/// them, so every series is a function of the code alone.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iomanip>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/dist_solve.hpp"
#include "harness/measure.hpp"

namespace benchfig {

/// Bench argv handling: consumes `--sim-threads=N` (exported as
/// COLLOM_SIM_THREADS so every simmpi::Engine of the binary picks it up),
/// then hands the remaining arguments to google-benchmark.  Call it before
/// computing anything: engines read COLLOM_SIM_THREADS when constructed.
inline void init(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--sim-threads=", 14) == 0)
      ::setenv("COLLOM_SIM_THREADS", argv[i] + 14, 1);
    else
      argv[out++] = argv[i];
  }
  *argc = out;
  benchmark::Initialize(argc, argv);
}

/// One emitted result: `family/args.../iterations:1` (just
/// `family/iterations:1` without args) with its counters and label.
/// `grid` fills family and args, so they may be left out.
struct Row {
  std::string family{};
  std::vector<std::int64_t> args{};
  std::string label;
  benchmark::UserCounters counters;
};

/// The figure driver: registers every row, in order, as a one-iteration
/// benchmark, runs google-benchmark (its flags — filters, reporters,
/// --benchmark_out — apply as usual) and shuts it down.  Throws on a row
/// without counters: it would measure nothing.
inline void run(const std::vector<Row>& rows) {
  for (const Row& row : rows) {
    if (row.counters.empty())
      throw std::logic_error("benchfig::run: " + row.family +
                             " row without counters");
    auto* b = benchmark::RegisterBenchmark(
        row.family.c_str(), [row](benchmark::State& state) {
          for (auto _ : state) benchmark::DoNotOptimize(row);
          state.counters = row.counters;
          state.SetLabel(row.label);
        });
    if (!row.args.empty()) b->Args(row.args);
    b->Iterations(1);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

/// Rows `family/i/s` for every i < n and s < m, i varying fastest (the
/// order of google-benchmark's ArgsProduct); `make(i, s)` supplies each
/// row's label and counters.
template <class Make>
std::vector<Row> grid(const std::string& family, std::size_t n, int m,
                      Make make) {
  std::vector<Row> out;
  for (int s = 0; s < m; ++s)
    for (std::size_t i = 0; i < n; ++i) {
      Row row = make(i, s);
      row.family = family;
      row.args = {static_cast<std::int64_t>(i), s};
      out.push_back(std::move(row));
    }
  return out;
}

/// A named data series over a shared x axis.
struct Series {
  std::string name;
  std::vector<double> y;
};

/// Print a paper-style figure table: one row per x value, one column per
/// series.  Doubles are printed in scientific notation.
inline void print_figure(std::ostream& os, const std::string& title,
                         const std::string& x_label,
                         const std::vector<double>& xs,
                         const std::vector<Series>& series) {
  os << "\n=== " << title << " ===\n";
  os << std::left << std::setw(14) << x_label;
  for (const auto& s : series) os << std::setw(26) << s.name;
  os << "\n";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << std::left << std::setw(14) << xs[i];
    for (const auto& s : series) {
      if (i < s.y.size())
        os << std::setw(26) << std::scientific << std::setprecision(4)
           << s.y[i];
      else
        os << std::setw(26) << "-";
      os << std::defaultfloat;
    }
    os << "\n";
  }
  os.flush();
}

/// The paper's evaluation configuration (Section 4).
inline constexpr long kPaperRows = 524288;  // 1024 x 512 grid
inline constexpr int kPaperRanks = 2048;
inline constexpr int kRanksPerRegion = 16;  // one CPU of a Lassen node
inline constexpr long kWeakRowsPerRank = 256;  // 524288 rows at 2048 ranks

/// Rank cap of the `--quick` smoke mode (COLLOM_BENCH_QUICK=1).
inline constexpr int kQuickMaxRanks = 256;

inline bool quick_mode() {
  static const bool q = [] {
    const char* v = std::getenv("COLLOM_BENCH_QUICK");
    return v != nullptr && *v != '\0' && *v != '0';
  }();
  return q;
}

/// Rank count of the fixed-size (non-sweeping) figures.
inline int paper_ranks() { return quick_mode() ? kQuickMaxRanks : kPaperRanks; }

/// Problem size of the fixed-size figures (weak-scaling-consistent in
/// quick mode, the paper's 524288 rows otherwise).
inline long paper_rows() {
  return quick_mode() ? kWeakRowsPerRank * paper_ranks() : kPaperRows;
}

/// "<rows> rows, <ranks> cores" of the fixed-size figures' titles.
inline std::string paper_scale() {
  return std::to_string(paper_rows()) + " rows, " +
         std::to_string(paper_ranks()) + " cores";
}

/// Strong/weak scaling sweep (Figures 12/13).
inline const std::vector<int>& scaling_ranks() {
  static const std::vector<int> full{32, 64, 128, 256, 512, 1024, 2048};
  static const std::vector<int> quick{32, 64, 128, 256};
  return quick_mode() ? quick : full;
}

/// Graph-creation sweep (Figure 6).
inline const std::vector<int>& graph_ranks() {
  static const std::vector<int> full{16, 64, 256, 512, 1024, 2048};
  static const std::vector<int> quick{16, 64, 256};
  return quick_mode() ? quick : full;
}

inline harness::MeasureConfig paper_config() {
  harness::MeasureConfig cfg;
  cfg.ranks_per_region = kRanksPerRegion;
  return cfg;
}

/// Measurements of all four protocols for one problem instance.
struct ProtocolSet {
  std::vector<harness::LevelMeasurement> per[4];  // indexed by Protocol
  const std::vector<harness::LevelMeasurement>& of(
      harness::Protocol p) const {
    return per[static_cast<int>(p)];
  }
};

inline ProtocolSet measure_all(const amg::DistHierarchy& dh) {
  const auto cfg = paper_config();
  ProtocolSet s;
  for (harness::Protocol p : harness::kAllProtocols)
    s.per[static_cast<int>(p)] = harness::measure_protocol(dh, p, cfg);
  return s;
}

/// One value per AMG level: `field` of each of a protocol's measurements.
template <class Field>
std::vector<double> per_level(const std::vector<harness::LevelMeasurement>& ms,
                              Field field) {
  std::vector<double> out;
  for (const auto& m : ms) out.push_back(static_cast<double>(m.*field));
  return out;
}

/// 0, 1, ..., n-1: the x axis of the per-level figures.
inline std::vector<double> levels(std::size_t n) {
  std::vector<double> out(n);
  std::iota(out.begin(), out.end(), 0.0);
  return out;
}

/// A per-level figure (Figures 8-11): rows `family/l/s` for every measured
/// level l and series s, with counters `level` and `counter` and the label
/// `labels[s]` (default: the series name), then the table.
inline void run_level_figure(const std::string& family,
                             const std::string& counter,
                             const std::string& title,
                             const std::vector<Series>& series,
                             const std::vector<std::string>& labels = {}) {
  const std::vector<double> xs = levels(series[0].y.size());
  run(grid(family, xs.size(), static_cast<int>(series.size()),
           [&](std::size_t l, int s) {
             return Row{.label = labels.empty() ? series[s].name : labels[s],
                        .counters = {{"level", xs[l]},
                                     {counter, series[s].y[l]}}};
           }));
  print_figure(std::cout, title, "AMG level", xs, series);
}

/// Figures 12/13: total SpMV communication across every AMG level at each
/// scaling_ranks() point, on the hierarchy `hierarchy(p)` distributed over
/// p ranks (held only while that point is measured).  As in the paper
/// (Section 4.2), the optimized lines use the cheaper of standard and
/// optimized communication on each level ("maximum possible improvement";
/// a per-pattern selection strategy achieves it — see
/// model::select_protocol).  Closes with the speedups at the largest point
/// next to the paper's at 2048 processes.
inline void run_scaling_figure(
    const std::string& family,
    const std::function<amg::DistHierarchy(int)>& hierarchy,
    const std::string& title, double paper_partial, double paper_full) {
  using harness::Protocol;
  std::vector<double> procs;
  std::vector<Series> series{{"Standard Hypre", {}},
                             {"Unoptimized Neighbor", {}},
                             {"Partially Optimized", {}},
                             {"Fully Optimized", {}}};
  for (int p : scaling_ranks()) {
    const ProtocolSet s = measure_all(hierarchy(p));
    const auto& hyp = s.of(Protocol::hypre);
    procs.push_back(p);
    series[0].y.push_back(harness::total_time(hyp));
    series[1].y.push_back(
        harness::total_time(s.of(Protocol::neighbor_standard)));
    // Best-of-per-level selection against the standard strategy.
    series[2].y.push_back(
        harness::total_time(s.of(Protocol::neighbor_partial), &hyp));
    series[3].y.push_back(
        harness::total_time(s.of(Protocol::neighbor_full), &hyp));
  }
  run(grid(family, procs.size(), 4, [&](std::size_t i, int p) {
    return Row{.label = harness::to_string(static_cast<Protocol>(p)),
               .counters = {{"procs", procs[i]},
                            {"sim_seconds", series[p].y[i]}}};
  }));
  print_figure(std::cout, title, "Processes", procs, series);
  const double hypre = series[0].y.back();
  std::printf(
      "speedup vs Standard Hypre at %d: partial %.2fx (paper at 2048: "
      "%.2fx), full %.2fx (paper: %.2fx)\n",
      scaling_ranks().back(), hypre / series[2].y.back(), paper_partial,
      hypre / series[3].y.back(), paper_full);
}

/// Method indices of the pattern sweeps: mi < kNumSparse is the sparse
/// neighbor method mpix::kAllMethods[mi]; the sparse-vs-dense sweeps
/// (bench_link_taper, bench_fault_sweep) follow with the dense alltoallv
/// method mpix::kAllAlltoallMethods[mi - kNumSparse].
inline constexpr int kNumSparse = 3;  // mpix::kAllMethods
inline constexpr int kNumDense = 3;   // mpix::kAllAlltoallMethods
inline constexpr int kNumMethods = kNumSparse + kNumDense;

inline const char* method_name(int mi) {
  return mi < kNumSparse
             ? mpix::to_string(mpix::kAllMethods[mi])
             : mpix::to_string(mpix::kAllAlltoallMethods[mi - kNumSparse]);
}

/// Every method of the sparse-vs-dense sweeps under `cfg`, indexed like
/// method_name: the sparse ones on `sparse_wl`, the dense ones on
/// `dense_wl`, each building its plans cold.
inline std::array<harness::PatternMeasurement, kNumMethods> measure_methods(
    const patterns::Workload& sparse_wl, const patterns::Workload& dense_wl,
    const harness::MeasureConfig& cfg) {
  std::array<harness::PatternMeasurement, kNumMethods> m;
  for (int mi = 0; mi < kNumMethods; ++mi)
    m[mi] = mi < kNumSparse
                ? harness::measure_pattern(sparse_wl, mpix::kAllMethods[mi],
                                           cfg)
                : harness::measure_pattern_dense(
                      dense_wl, mpix::kAllAlltoallMethods[mi - kNumSparse],
                      cfg);
  return m;
}

}  // namespace benchfig
