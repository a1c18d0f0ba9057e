/// \file bench_fig12_strong_scaling.cpp
/// \brief Figure 12: total SpMV communication across every AMG level,
/// strong-scaled 524 288-row rotated anisotropic diffusion, 32-2048
/// processes.  As in the paper (Section 4.2), the optimized lines use the
/// cheaper of standard and optimized communication on each level ("maximum
/// possible improvement"; a per-pattern selection strategy achieves it —
/// see model::select_protocol).  Paper: 1.32x speedup for the partially
/// optimized collective at 2048 processes, +0.07x more for dedup.

#include "bench_common.hpp"

using namespace benchfig;

int main(int argc, char** argv) {
  init(&argc, argv);
  // One canonical hierarchy, distributed anew at every point.
  const amg::Hierarchy h = harness::paper_hierarchy(paper_rows());
  run_scaling_figure(
      "BM_StrongScaling",
      [&h](int p) { return amg::distribute_hierarchy(h, p); },
      "Figure 12: strong scaling of SpMV communication over all AMG levels "
      "(seconds, " +
          std::to_string(paper_rows()) + " rows)",
      1.32, 1.39);
  return 0;
}
