/// \file bench_fig10_global_sizes.cpp
/// \brief Figure 10: maximum single inter-region message size (in vector
/// values) per process and level, partially vs fully optimized.  The dedup
/// extension removes values bound for several ranks of one region; the
/// paper reports up to a 35 % reduction (level 4 of its hierarchy).

#include "bench_common.hpp"

using namespace benchfig;
using harness::Protocol;

int main(int argc, char** argv) {
  init(&argc, argv);
  const auto& dh = harness::paper_dist_hierarchy(paper_rows(), paper_ranks());
  auto par = harness::measure_protocol(dh, Protocol::neighbor_partial,
                                       paper_config());
  auto ful = harness::measure_protocol(dh, Protocol::neighbor_full,
                                       paper_config());
  const auto size = &harness::LevelMeasurement::max_global_msg_values;
  run_level_figure("BM_GlobalMessageSize", "max_global_msg_values",
                   "Figure 10: max single inter-region message size "
                   "(values), per SpMV level (" +
                       paper_scale() + ")",
                   {{"Partially Optimized", per_level(par, size)},
                    {"Fully Optimized", per_level(ful, size)}});
  double best_reduction = 0.0;
  int best_level = -1;
  for (std::size_t l = 0; l < par.size(); ++l) {
    if (par[l].max_global_msg_values > 0) {
      const double red =
          1.0 - static_cast<double>(ful[l].max_global_msg_values) /
                    par[l].max_global_msg_values;
      if (red > best_reduction) {
        best_reduction = red;
        best_level = static_cast<int>(l);
      }
    }
  }
  std::printf("largest dedup reduction: %.0f%% at level %d "
              "(paper: 35%% at level 4)\n",
              100.0 * best_reduction, best_level);
  return 0;
}
