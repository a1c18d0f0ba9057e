/// \file bench_patterns.cpp
/// \brief Workload-generator sweep: every registered pattern of the
/// patterns layer (stencil halos, incast, bursty I/O, random sparse,
/// overlap ring) x machine shape x the three sparse neighbor methods, on
/// the congestion-aware machine model (endpoint ejection cap enabled).
///
/// Not a paper figure: this is the scenario-diversity series from the
/// related MPI-Asynchronous-Communication-Test benchmarks.  Per point the
/// counters expose the three simulated windows (init, blocking,
/// overlapped) plus the sender-side message/value footprint; for patterns
/// with an overlap window, blocking - overlapped is the exploitable
/// communication/computation overlap under the cost model.

#include "bench_common.hpp"

#include "patterns/pattern.hpp"

namespace {

using namespace benchfig;

struct Shape {
  int procs;
  int rpr;  // ranks per region
  int rpn;  // regions per node
};

std::vector<Shape> shapes() {
  std::vector<Shape> out{{64, 8, 1}, {64, 4, 2}};
  if (!quick_mode()) {
    out.push_back({256, 16, 1});
    out.push_back({512, 16, 2});
  }
  return out;
}

/// Per-pattern value scaling: enough bytes that the regimes and the
/// ejection queue matter, small enough that quick mode stays a smoke run.
patterns::PatternParams params_for(const char* name) {
  patterns::PatternParams p;
  p.seed = 1;
  const std::string n = name;
  if (n == "incast") {
    p.values = 256;
    p.fan_in = 0;  // every other rank
  } else if (n == "bursty_io") {
    p.values = 64;  // x 8 = 512 values per writer
    p.sinks = 4;
  } else if (n == "random_sparse") {
    p.values = 32;
    p.degree = 6;
  } else if (n == "ring_overlap") {
    p.values = 512;
  } else {
    p.values = 64;  // stencils
  }
  return p;
}

struct PointData {
  Shape shape;
  patterns::Workload wl;  // kept for labels/counters
  harness::PatternMeasurement m[kNumSparse];
};

std::vector<PointData> measure() {
  std::vector<PointData> out;
  for (const Shape& sh : shapes()) {
    const simmpi::Machine machine({.num_nodes = sh.procs / (sh.rpr * sh.rpn),
                                   .regions_per_node = sh.rpn,
                                   .ranks_per_region = sh.rpr});
    harness::MeasureConfig cfg;
    cfg.ranks_per_region = sh.rpr;
    cfg.regions_per_node = sh.rpn;
    cfg.cost.use_ejection_cap = true;  // endpoint congestion first-class
    cfg.plans = &plan_cache();
    for (const auto& spec : patterns::registry()) {
      PointData pt;
      pt.shape = sh;
      pt.wl = spec.make(machine, params_for(spec.name));
      for (int mi = 0; mi < kNumSparse; ++mi)
        pt.m[mi] = harness::measure_pattern(pt.wl, mpix::kAllMethods[mi], cfg);
      out.push_back(std::move(pt));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  init(&argc, argv);
  const std::vector<PointData> d = measure();
  run(grid("BM_Pattern", d.size(), kNumSparse, [&](std::size_t pi, int mi) {
    const PointData& pt = d[pi];
    const harness::PatternMeasurement& m = pt.m[mi];
    const Shape& sh = pt.shape;
    return Row{
        .label = pt.wl.pattern + " " + mpix::to_string(mpix::kAllMethods[mi]) +
                 " P=" + std::to_string(sh.procs) +
                 " ppn=" + std::to_string(sh.rpr) +
                 " rpn=" + std::to_string(sh.rpn),
        .counters = {{"procs", sh.procs},
                     {"ppn", sh.rpr},
                     {"rpn", sh.rpn},
                     {"init_sim_seconds", m.init_seconds},
                     {"blocking_sim_seconds", m.blocking_seconds},
                     {"overlapped_sim_seconds", m.overlapped_seconds},
                     {"overlap_window_seconds", m.overlap_seconds},
                     {"sum_local_msgs", m.sum_local_msgs},
                     {"sum_global_msgs", m.sum_global_msgs},
                     {"sum_local_values", m.sum_local_values},
                     {"sum_global_values", m.sum_global_values},
                     {"max_rank_global_msgs", m.max_global_msgs},
                     {"max_global_msg_values", m.max_global_msg_values}}};
  }));
  std::printf(
      "\nPattern sweep (endpoint congestion on; times are simulated "
      "seconds)\n"
      "%-13s %6s %4s %4s | %-16s %10s %11s %11s %10s %10s\n",
      "pattern", "procs", "ppn", "rpn", "method", "init_s", "blocking_s",
      "overlap_s", "glob_msgs", "glob_vals");
  for (const PointData& pt : d) {
    const Shape& sh = pt.shape;
    for (int mi = 0; mi < kNumSparse; ++mi) {
      const harness::PatternMeasurement& m = pt.m[mi];
      std::printf(
          "%-13s %6d %4d %4d | %-16s %10.3e %11.3e %11.3e %10ld %10ld\n",
          pt.wl.pattern.c_str(), sh.procs, sh.rpr, sh.rpn,
          mpix::to_string(mpix::kAllMethods[mi]), m.init_seconds,
          m.blocking_seconds, m.overlapped_seconds, m.sum_global_msgs,
          m.sum_global_values);
    }
  }
  return 0;
}
