/// \file bench_ablation_model.cpp
/// \brief Ablation: which cost-model features drive the paper's result?
///
/// Three machine models, same 524 288-row problem at 2048 ranks:
///  * lassen      — locality-aware tiers + NIC injection queue (default);
///  * no-nic-cap  — locality-aware tiers, infinite injection bandwidth;
///  * flat        — every tier costs the same (locality-blind).
///
/// Finding (recorded in docs/BENCHMARKS.md, `bench_ablation_model` row):
/// the aggregation speedup survives without the injection cap (it is
/// latency/count-driven), and it even survives a locality-blind model —
/// three-step aggregation not only exploits cheap local links, it *load
/// balances*: the busiest rank's message count falls from "every
/// destination rank in every remote region" to "one message per assigned
/// region".  The locality tiers decide where the fine-level crossover
/// sits, not whether the coarse levels win.

#include "bench_common.hpp"

namespace {

using namespace benchfig;
using harness::Protocol;

struct Entry {
  const char* name;
  double hypre = 0.0, partial = 0.0;
  double speedup() const { return hypre / partial; }
};

Entry measure(const char* name, simmpi::CostParams params) {
  harness::MeasureConfig cfg = paper_config();
  cfg.cost = params;
  const auto& dh = harness::paper_dist_hierarchy(paper_rows(), paper_ranks());
  Entry e;
  e.name = name;
  auto hyp = harness::measure_protocol(dh, Protocol::hypre, cfg);
  auto par = harness::measure_protocol(dh, Protocol::neighbor_partial, cfg);
  e.hypre = harness::total_time(hyp);
  e.partial = harness::total_time(par, &hyp);
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  init(&argc, argv);
  simmpi::CostParams nocap = simmpi::CostParams::lassen();
  nocap.use_injection_cap = false;
  const Entry entries[] = {measure("lassen", simmpi::CostParams::lassen()),
                           measure("no-nic-cap", nocap),
                           measure("flat", simmpi::CostParams::flat())};
  std::vector<Row> rows;
  for (int i = 0; i < 3; ++i)
    rows.push_back({"BM_CostModelAblation", {i}, entries[i].name,
                    {{"hypre_sim_seconds", entries[i].hypre},
                     {"partial_sim_seconds", entries[i].partial},
                     {"speedup", entries[i].speedup()}}});
  run(rows);
  std::printf("\n=== Ablation: cost-model features (%s) ===\n"
              "%-12s %-14s %-14s %s\n", paper_scale().c_str(), "model",
              "hypre (s)", "partial (s)", "speedup");
  for (const auto& e : entries)
    std::printf("%-12s %-14.4e %-14.4e %.2fx\n", e.name, e.hypre, e.partial,
                e.speedup());
  return 0;
}
