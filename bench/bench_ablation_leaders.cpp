/// \file bench_ablation_leaders.cpp
/// \brief Ablation: leader load balancing inside the aggregated collective.
///
/// The paper's init "load balances while determining which intra-region
/// process communicates with each region".  This bench compares the
/// longest-processing-time assignment (default) against naive round-robin
/// at 2048 ranks: LPT should lower (or match) the per-iteration time on the
/// communication-heavy levels by evening out per-leader message volume.

#include "bench_common.hpp"

using namespace benchfig;
using harness::Protocol;

int main(int argc, char** argv) {
  init(&argc, argv);
  const auto& dh = harness::paper_dist_hierarchy(paper_rows(), paper_ranks());
  const auto time = &harness::LevelMeasurement::start_wait_seconds;
  harness::MeasureConfig cfg = paper_config();
  cfg.lpt_balance = true;
  const auto lpt = per_level(
      harness::measure_protocol(dh, Protocol::neighbor_partial, cfg), time);
  cfg.lpt_balance = false;
  const auto rr = per_level(
      harness::measure_protocol(dh, Protocol::neighbor_partial, cfg), time);
  const double total_lpt = std::accumulate(lpt.begin(), lpt.end(), 0.0);
  const double total_rr = std::accumulate(rr.begin(), rr.end(), 0.0);
  run({{"BM_LeaderAssignment", {0}, "round-robin",
        {{"total_sim_seconds", total_rr}}},
       {"BM_LeaderAssignment", {1}, "lpt",
        {{"total_sim_seconds", total_lpt}}}});
  print_figure(std::cout,
               "Ablation: leader assignment strategy, partially "
               "optimized collective (seconds per level)",
               "AMG level", levels(lpt.size()),
               {{"LPT (default)", lpt}, {"Round-robin", rr}});
  std::printf("totals: LPT %.4e s, round-robin %.4e s (ratio %.2f)\n",
              total_lpt, total_rr, total_rr / total_lpt);
  return 0;
}
