/// \file bench_fig08_local_counts.cpp
/// \brief Figure 8: maximum number of intra-region ("local") messages sent
/// by any process, per AMG level (524 288 rows, 2048 cores).  Locality-aware
/// aggregation trades extra local traffic for fewer global messages, so the
/// optimized line must sit well above the standard one.

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
  const auto local = &harness::LevelMeasurement::max_local_msgs;
  run_level_figure("BM_LocalMessages", "max_local_msgs",
                   "Figure 8: max intra-region messages per process, "
                   "per SpMV level (" +
                       paper_scale() + ")",
                   {{"Standard Local", per_level(std_m, local)},
                    {"Optimized Local", per_level(opt_m, local)}});
  return 0;
}
