/// \file bench_fig_dense_crossover.cpp
/// \brief Dense alltoall crossover sweep: the three `mpix::alltoallv_init`
/// methods (standard pairwise, node-aggregated, locality-aware Bruck)
/// across message size x machine shape.  Not a paper figure — the paper's
/// evaluation is sparse neighbor exchanges — but the same locality model
/// applied to the dense collective the locality_aware reference repo left
/// as future work.
///
/// Each point runs the `patterns::uniform_dense` workload through
/// `harness::measure_pattern_dense`; its blocking window is one Start+Wait.
/// Per sweep point the counters expose the method's network footprint
/// (sum/max global messages, value totals, largest single message) next to
/// its simulated init and per-iteration times, plus the crossover iteration
/// count against the standard method.  Expected scaling for P ranks in R
/// regions: standard sends P^2 - sum |region|^2 network messages,
/// node_aggregated R(R-1), bruck R*ceil(log2 R).

#include "bench_common.hpp"

namespace {

using namespace benchfig;

constexpr std::size_t kElementSize = sizeof(double);

struct Point {
  int procs = 0;
  int ppn = 0;    // ranks per region
  int count = 0;  // values per rank pair
};

std::vector<Point> points() {
  std::vector<Point> out;
  std::vector<int> procs{64, 256};
  if (!quick_mode()) procs.push_back(512);
  for (int p : procs)
    for (int ppn : {4, 16}) {
      std::vector<int> counts{1, 32};
      if (!quick_mode() && p <= 256) counts.push_back(256);
      for (int c : counts) out.push_back({p, ppn, c});
    }
  return out;
}

struct Data {
  // Indexed [method][point].
  std::vector<harness::PatternMeasurement> m[kNumDense];
  std::vector<int> crossover[kNumDense];  // vs standard; standard = 0
};

Data measure(const std::vector<Point>& pts) {
  Data out;
  for (const Point& pt : pts) {
    harness::MeasureConfig cfg;
    cfg.ranks_per_region = pt.ppn;
    cfg.plans = &plan_cache();
    const patterns::Workload wl = patterns::uniform_dense(
        harness::machine_for(pt.procs, cfg), {.values = pt.count});
    harness::PatternMeasurement per[kNumDense];
    for (int mi = 0; mi < kNumDense; ++mi) {
      per[mi] = harness::measure_pattern_dense(
          wl, mpix::kAllAlltoallMethods[mi], cfg, kElementSize);
      out.m[mi].push_back(per[mi]);
    }
    for (int mi = 0; mi < kNumDense; ++mi)
      out.crossover[mi].push_back(
          mi == 0 ? 0
                  : harness::crossover_iterations(
                        per[0].init_seconds, per[0].blocking_seconds,
                        per[mi].init_seconds, per[mi].blocking_seconds));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  init(&argc, argv);
  const std::vector<Point> pts = points();
  const Data d = measure(pts);
  run(grid("BM_DenseAlltoall", pts.size(), kNumDense,
           [&](std::size_t pi, int mi) {
             const Point& pt = pts[pi];
             const harness::PatternMeasurement& m = d.m[mi][pi];
             return Row{
                 .label = std::string(mpix::to_string(
                              mpix::kAllAlltoallMethods[mi])) +
                          " P=" + std::to_string(pt.procs) +
                          " ppn=" + std::to_string(pt.ppn) +
                          " count=" + std::to_string(pt.count),
                 .counters = {
                     {"procs", pt.procs},
                     {"ppn", pt.ppn},
                     {"msg_count", pt.count},
                     {"msg_bytes", static_cast<double>(pt.count) *
                                       static_cast<double>(kElementSize)},
                     {"init_sim_seconds", m.init_seconds},
                     {"per_iter_sim_seconds", m.blocking_seconds},
                     {"sum_local_msgs", m.sum_local_msgs},
                     {"sum_global_msgs", m.sum_global_msgs},
                     {"max_rank_global_msgs", m.max_global_msgs},
                     {"sum_global_values", m.sum_global_values},
                     {"max_global_msg_values", m.max_global_msg_values},
                     {"crossover_iters", d.crossover[mi][pi]}}};
           }));
  std::printf(
      "\nDense alltoall (element = %zu bytes; times are simulated seconds)\n"
      "%6s %4s %6s | %-16s %12s %14s %12s %12s %10s\n",
      kElementSize, "procs", "ppn", "count", "method", "init_s", "per_iter_s",
      "glob_msgs", "glob_vals", "crossover");
  for (std::size_t pi = 0; pi < pts.size(); ++pi) {
    const Point& pt = pts[pi];
    for (int mi = 0; mi < kNumDense; ++mi) {
      const harness::PatternMeasurement& m = d.m[mi][pi];
      std::printf("%6d %4d %6d | %-16s %12.3e %14.3e %12ld %12ld %10d\n",
                  pt.procs, pt.ppn, pt.count,
                  mpix::to_string(mpix::kAllAlltoallMethods[mi]),
                  m.init_seconds, m.blocking_seconds, m.sum_global_msgs,
                  m.sum_global_values, d.crossover[mi][pi]);
    }
  }
  return 0;
}
