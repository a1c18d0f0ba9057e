/// \file bench_fault_sweep.cpp
/// \brief Robustness sweep: goodput and completion-time inflation of the
/// three sparse neighbor methods and the three dense alltoallv engines
/// under a grid of message-drop rates x link-brownout severities
/// (simmpi::FaultPlan), with reliable delivery (mpix::Options::
/// reliability) carrying the dropped-message points.
///
/// Not a paper figure: this is the fault-tolerance ablation the
/// robustness PR adds on top of the paper's fault-free machine.  Per grid
/// point the counters expose
///  * `completion_x`   — blocking-window time over the fault-free
///    baseline of the same method (1.0 on the baseline row),
///  * `goodput_values_per_s` — delivered payload values per simulated
///    second of the blocking window (retransmits move time, never
///    payload: the pattern runner's payload check keeps proving delivered
///    bytes equal the fault-free truth),
///  * the engine's fault ledger (drops / retransmits / timeouts).
///
/// The whole sweep is schedule-deterministic: CI byte-compares the quick
/// series at --sim-threads=1 vs 4 (.github/workflows/ci.yml, bench-smoke).

#include "bench_common.hpp"

#include "patterns/pattern.hpp"
#include "simmpi/fault.hpp"

namespace {

using namespace benchfig;

/// Drop-rate x brownout-severity grid; (0, 1.0) — fault-free — comes
/// first and is the completion_x baseline.  Severity multiplies the
/// bandwidth of every shared link tier (1.0 = healthy).
const std::vector<double>& drop_rates() {
  static const std::vector<double> full{0.0, 0.05, 0.15, 0.30};
  static const std::vector<double> quick{0.0, 0.15};
  return quick_mode() ? quick : full;
}
const std::vector<double>& severities() {
  static const std::vector<double> full{1.0, 0.5, 0.25};
  static const std::vector<double> quick{1.0, 0.5};
  return quick_mode() ? quick : full;
}

struct Shape {
  int nodes, rpn, rpr;
  int procs() const { return nodes * rpn * rpr; }
};
/// 8 nodes under a 2-level tapered fat tree (2 leaf switches, 1 root) —
/// the smallest shape where drops, brownouts and the shared-link queues
/// all act on distinct tiers.
Shape shape() { return quick_mode() ? Shape{8, 2, 4} : Shape{8, 2, 8}; }

simmpi::Machine sweep_machine() {
  const Shape sh = shape();
  return simmpi::Machine({.num_nodes = sh.nodes,
                          .regions_per_node = sh.rpn,
                          .ranks_per_region = sh.rpr});
}

harness::MeasureConfig sweep_config() {
  const Shape sh = shape();
  harness::MeasureConfig cfg;
  cfg.ranks_per_region = sh.rpr;
  cfg.regions_per_node = sh.rpn;
  cfg.switch_levels = {{.radix = 4, .taper = 2.0}, {.radix = 2, .taper = 1.0}};
  cfg.cost.use_link_cap = true;
  cfg.cost.link_msg_bytes = 256.0;
  cfg.plans = &plan_cache();
  return cfg;
}

struct Point {
  double drop;
  double severity;
  std::array<harness::PatternMeasurement, kNumMethods> m;  // method_name
};

std::vector<Point> measure() {
  const simmpi::Machine machine = sweep_machine();
  // Sparse traffic: a seeded random sparse halo exchange; dense
  // traffic: every-rank incast onto 4 sinks spread across nodes (the
  // alltoallv engines expand it to full counts).  Sinks on distinct
  // nodes matter: a single-sink fan-in of a few ranks is all
  // intra-node, and intra-node messages are never dropped or browned
  // out — the sweep would be flat.
  const patterns::Workload sparse_wl = patterns::generate(
      "random_sparse", machine, {.values = 32, .seed = 9, .degree = 6});
  const patterns::Workload dense_wl = patterns::generate(
      "incast", machine, {.values = 16, .seed = 9, .fan_in = 0, .sinks = 4});

  std::vector<Point> out;
  for (double drop : drop_rates()) {
    for (double sev : severities()) {
      simmpi::FaultPlan plan;
      plan.seed = 42;
      if (drop > 0.0)
        plan.events.push_back(
            {.kind = simmpi::FaultSpec::Kind::msg_drop, .rate = drop});
      if (sev < 1.0)
        plan.events.push_back({.kind = simmpi::FaultSpec::Kind::link_brownout,
                               .severity = sev});
      harness::MeasureConfig cfg = sweep_config();
      // The fault-free corner stays on the engine's byte-inert
      // no-plan hot path — it doubles as the baseline row.
      if (!plan.events.empty()) cfg.faults = &plan;
      if (drop > 0.0) {
        cfg.reliability.enabled = true;
        cfg.reliability.timeout = 5e-4;
      }
      out.push_back({drop, sev, measure_methods(sparse_wl, dense_wl, cfg)});
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  init(&argc, argv);
  const std::vector<Point> d = measure();
  run(grid("BM_FaultSweep", d.size(), kNumMethods, [&](std::size_t pi, int mi) {
    const Point& pt = d[pi];
    const harness::PatternMeasurement& m = pt.m[mi];
    const harness::PatternMeasurement& base = d[0].m[mi];
    return Row{
        .label = std::string(mi < kNumSparse ? "sparse " : "dense ") +
                 method_name(mi) + " drop=" + std::to_string(pt.drop) +
                 " sev=" + std::to_string(pt.severity),
        .counters = {{"procs", shape().procs()},
                     {"drop_rate", pt.drop},
                     {"brownout_severity", pt.severity},
                     {"blocking_sim_seconds", m.blocking_seconds},
                     {"completion_x",
                      m.blocking_seconds / base.blocking_seconds},
                     {"goodput_values_per_s",
                      static_cast<double>(m.sum_global_values) /
                          m.blocking_seconds},
                     {"drops", m.drops},
                     {"retransmits", m.retransmits},
                     {"timeouts", m.timeouts}}};
  }));
  std::printf(
      "\nFault sweep (P=%d, tapered fat tree, link cap on; times are "
      "simulated seconds)\n"
      "%5s %5s | %-22s %12s %8s %14s %6s %7s %6s\n",
      shape().procs(), "drop", "sev", "method", "blocking_s", "compl_x",
      "goodput_vals_s", "drops", "retrans", "tmouts");
  for (const Point& pt : d) {
    for (int mi = 0; mi < kNumMethods; ++mi) {
      const harness::PatternMeasurement& m = pt.m[mi];
      const harness::PatternMeasurement& base = d[0].m[mi];
      std::printf(
          "%5.2f %5.2f | %-22s %12.3e %8.2f %14.3e %6ld %7ld %6ld\n",
          pt.drop, pt.severity,
          (std::string(mi < kNumSparse ? "sparse/" : "dense/") +
           method_name(mi))
              .c_str(),
          m.blocking_seconds, m.blocking_seconds / base.blocking_seconds,
          static_cast<double>(m.sum_global_values) / m.blocking_seconds,
          m.drops, m.retransmits, m.timeouts);
    }
  }
  return 0;
}
