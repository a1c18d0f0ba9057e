/// \file bench_fig09_global_counts.cpp
/// \brief Figure 9: maximum number of inter-region ("global") messages sent
/// by any process, per AMG level (524 288 rows, 2048 cores).  Aggregation
/// caps a rank's global messages at its share of the region's destination
/// regions, flattening the standard protocol's coarse-level spike.

#include "bench_common.hpp"

using namespace benchfig;
using harness::Protocol;

int main(int argc, char** argv) {
  init(&argc, argv);
  const auto& dh = harness::paper_dist_hierarchy(paper_rows(), paper_ranks());
  auto std_m = harness::measure_protocol(dh, Protocol::neighbor_standard,
                                         paper_config());
  auto opt_m = harness::measure_protocol(dh, Protocol::neighbor_partial,
                                         paper_config());
  const auto global = &harness::LevelMeasurement::max_global_msgs;
  run_level_figure("BM_GlobalMessages", "max_global_msgs",
                   "Figure 9: max inter-region messages per process, "
                   "per SpMV level (" +
                       paper_scale() + ")",
                   {{"Standard Global", per_level(std_m, global)},
                    {"Optimized Global", per_level(opt_m, global)}});
  return 0;
}
