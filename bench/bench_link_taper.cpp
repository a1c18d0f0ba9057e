/// \file bench_link_taper.cpp
/// \brief Fat-tree taper sweep: selected patterns x taper ratios
/// {1:1, 2:1, 4:1} x the sparse neighbor methods and the dense alltoallv
/// methods, with shared-link contention charged (use_link_cap on).
///
/// The crossover story of the paper, given a physical cause in the model:
/// with a flat core (taper 1:1) aggregation pays mostly through endpoint
/// and message-rate effects, but as the core tapers, every message crossing
/// a leaf-switch boundary pays its framing (CostParams::link_msg_bytes)
/// at the tapered link rate — so the standard methods' many small
/// messages fall behind node_aggregated/bruck by a margin that *grows*
/// with the taper ratio.  The `blocking_vs_standard` counter exposes that
/// margin directly (>1 means the method beats standard at this taper).
///
/// The simulated tree is nodes -> 4 leaf switches -> 1 root (one shared
/// up/down link tier, tapered).  Quick mode runs the 64-rank shape only.

#include "bench_common.hpp"

#include "patterns/pattern.hpp"

namespace {

using namespace benchfig;

struct Shape {
  int procs;
  int rpr;  // ranks per region (one region per node here)
};

std::vector<Shape> shapes() {
  std::vector<Shape> out{{64, 4}};  // 16 nodes -> 4 leaves -> 1 root
  if (!quick_mode()) out.push_back({256, 16});
  return out;
}

/// Small per-edge payloads: the taper story is about *message-rate*
/// pressure on shared links (framing paid per message at the tapered
/// rate), which is exactly the fine-grained-halo regime the paper's
/// aggregation targets.  Large payloads converge every method to the same
/// bytes/rate bound and the margin flattens.
patterns::PatternParams params_for(const char* name) {
  patterns::PatternParams p;
  p.seed = 1;
  const std::string n = name;
  if (n == "incast") {
    p.values = 32;
    p.fan_in = 0;  // every other rank
  } else if (n == "random_sparse") {
    p.values = 8;
    p.degree = 6;
  } else {
    p.values = 16;  // stencil
  }
  return p;
}

struct Point {
  Shape shape;
  double taper;
  patterns::Workload wl;  // kept for labels/counters
  std::array<harness::PatternMeasurement, kNumMethods> m;  // method_name
};

std::vector<Point> measure() {
  std::vector<Point> out;
  for (const Shape& sh : shapes()) {
    const simmpi::Machine machine =
        simmpi::Machine::with_region_size(sh.procs, sh.rpr);
    for (const char* pname : {"stencil3d27", "random_sparse", "incast"}) {
      // One workload per (shape, pattern): tapers change link costs, never
      // the traffic.
      patterns::Workload wl;
      for (const auto& spec : patterns::registry())
        if (std::string(spec.name) == pname)
          wl = spec.make(machine, params_for(pname));
      for (double taper : {1.0, 2.0, 4.0}) {
        harness::MeasureConfig cfg;
        cfg.ranks_per_region = sh.rpr;
        cfg.switch_levels = {{.radix = 4, .taper = taper},
                             {.radix = machine.num_nodes() / 4,
                              .taper = 1.0}};
        cfg.cost.use_link_cap = true;
        cfg.cost.link_msg_bytes = 256.0;  // framing + rendezvous control
        // Low host overheads put every method's bottleneck on the
        // network, not the posting CPU: the dense standard method posts
        // O(P) requests per rank, and with Lassen-default overheads
        // that CPU time (especially the O(P) receive-queue search)
        // would hide the link contention this sweep is about.
        cfg.cost.send_overhead = 5.0e-8;
        cfg.cost.recv_overhead = 5.0e-8;
        cfg.cost.queue_search = 0.0;
        out.push_back({sh, taper, wl, measure_methods(wl, wl, cfg)});
      }
    }
  }
  return out;
}

/// Margin over the standard method of the same family at the point's
/// taper (>1 means method mi beats standard).
double vs_standard(const Point& pt, int mi) {
  const harness::PatternMeasurement& m = pt.m[mi];
  const harness::PatternMeasurement& std_m =
      pt.m[mi < kNumSparse ? 0 : kNumSparse];
  return m.blocking_seconds > 0.0 ? std_m.blocking_seconds / m.blocking_seconds
                                  : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  init(&argc, argv);
  const std::vector<Point> d = measure();
  run(grid("BM_LinkTaper", d.size(), kNumMethods, [&](std::size_t pi, int mi) {
    const Point& pt = d[pi];
    const harness::PatternMeasurement& m = pt.m[mi];
    const Shape& sh = pt.shape;
    double busy = 0.0, backlog = 0.0;
    long crossings = 0;
    for (double v : m.link_seconds) busy += v;
    for (double v : m.max_link_backlog_seconds) backlog = std::max(backlog, v);
    for (long v : m.sum_link_msgs) crossings += v;
    return Row{
        .label = pt.wl.pattern + " " + std::string(method_name(mi)) +
                 (mi < kNumSparse ? " (sparse)" : " (dense)") +
                 " P=" + std::to_string(sh.procs) +
                 " taper=" + std::to_string(static_cast<int>(pt.taper)) +
                 ":1",
        .counters = {{"procs", sh.procs},
                     {"ppn", sh.rpr},
                     {"taper", pt.taper},
                     {"init_sim_seconds", m.init_seconds},
                     {"blocking_sim_seconds", m.blocking_seconds},
                     {"overlapped_sim_seconds", m.overlapped_seconds},
                     {"sum_global_msgs", m.sum_global_msgs},
                     {"sum_global_values", m.sum_global_values},
                     {"link_busy_seconds", busy},
                     {"max_link_backlog_seconds", backlog},
                     {"sum_link_crossings", crossings},
                     {"blocking_vs_standard", vs_standard(pt, mi)}}};
  }));
  std::printf(
      "\nFat-tree taper sweep (shared-link contention on; times are "
      "simulated seconds; x_std = standard/method of the same family)\n"
      "%-13s %6s %6s | %-16s %-7s %11s %11s %7s\n",
      "pattern", "procs", "taper", "method", "family", "blocking_s",
      "link_busy_s", "x_std");
  for (const Point& pt : d) {
    for (int mi = 0; mi < kNumMethods; ++mi) {
      const harness::PatternMeasurement& m = pt.m[mi];
      double busy = 0.0;
      for (double v : m.link_seconds) busy += v;
      std::printf("%-13s %6d %5d:1 | %-16s %-7s %11.3e %11.3e %7.2f\n",
                  pt.wl.pattern.c_str(), pt.shape.procs,
                  static_cast<int>(pt.taper), method_name(mi),
                  mi < kNumSparse ? "sparse" : "dense", m.blocking_seconds,
                  busy, vs_standard(pt, mi));
    }
  }
  return 0;
}
