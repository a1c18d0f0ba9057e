/// \file bench_fig13_weak_scaling.cpp
/// \brief Figure 13: total SpMV communication across every AMG level,
/// weakly scaled rotated anisotropic diffusion (256 rows per rank, reaching
/// 524 288 rows at 2048 processes), 32-2048 processes.  Optimized lines use
/// per-level best-of selection as in Figure 12.  Paper: 1.96x speedup from
/// locality-aware aggregation at 2048 cores, +0.21x more from dedup.

#include "bench_common.hpp"

using namespace benchfig;

int main(int argc, char** argv) {
  init(&argc, argv);
  run_scaling_figure(
      "BM_WeakScaling",
      [](int p) {
        return harness::paper_dist_hierarchy(kWeakRowsPerRank * p, p);
      },
      "Figure 13: weak scaling of SpMV communication over all AMG levels "
      "(seconds, 256 rows/rank)",
      1.96, 2.17);
  return 0;
}
