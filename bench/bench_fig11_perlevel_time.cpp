/// \file bench_fig11_perlevel_time.cpp
/// \brief Figure 11: Start+Wait time of the SpMV halo exchange on each AMG
/// level, all four protocols (524 288 rows, 2048 cores).  Fine levels favor
/// standard communication (aggregation overhead); coarse middle levels —
/// where irregular communication peaks — favor the locality-aware
/// collectives; the very coarsest levels involve few processes and converge
/// again.

#include "bench_common.hpp"

using namespace benchfig;
using harness::Protocol;

int main(int argc, char** argv) {
  init(&argc, argv);
  const ProtocolSet s =
      measure_all(harness::paper_dist_hierarchy(paper_rows(), paper_ranks()));
  const auto time = &harness::LevelMeasurement::start_wait_seconds;
  std::vector<std::string> labels;
  for (Protocol p : harness::kAllProtocols)
    labels.push_back(harness::to_string(p));
  run_level_figure(
      "BM_PerLevelTime", "sim_seconds",
      "Figure 11: SpMV Start+Wait time per AMG level (seconds, " +
          paper_scale() + ")",
      {{"Standard Hypre", per_level(s.per[0], time)},
       {"Unoptimized Neighbor", per_level(s.per[1], time)},
       {"Partially Optim. Neighbor", per_level(s.per[2], time)},
       {"Fully Optim. Neighbor", per_level(s.per[3], time)}},
      labels);
  return 0;
}
