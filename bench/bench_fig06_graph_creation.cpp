/// \file bench_fig06_graph_creation.cpp
/// \brief Figure 6: cost of MPI_Dist_graph_create_adjacent, called once per
/// AMG level, strong-scaled 524 288-row rotated anisotropic diffusion.
/// Series: "spectrum-like" (allgather-based construction) vs "mvapich-like"
/// (sparse handshake).  Paper: MVAPICH 8.6x faster at 2048 processes and
/// better strong scaling.

#include "bench_common.hpp"

using namespace benchfig;

int main(int argc, char** argv) {
  init(&argc, argv);
  // One canonical hierarchy, distributed anew at every point.
  const amg::Hierarchy h = harness::paper_hierarchy(paper_rows());
  std::vector<double> procs, spectrum, mvapich;
  for (int p : graph_ranks()) {
    const amg::DistHierarchy dh = amg::distribute_hierarchy(h, p);
    procs.push_back(p);
    spectrum.push_back(harness::measure_graph_creation(
        dh, simmpi::GraphAlgo::allgather, paper_config()));
    mvapich.push_back(harness::measure_graph_creation(
        dh, simmpi::GraphAlgo::handshake, paper_config()));
  }
  run(grid("BM_GraphCreation", procs.size(), 2, [&](std::size_t i, int s) {
    const bool spectrum_like = s != 0;
    return Row{.label = spectrum_like ? "spectrum-like" : "mvapich-like",
               .counters = {{"procs", procs[i]},
                            {"sim_seconds",
                             spectrum_like ? spectrum[i] : mvapich[i]}}};
  }));
  print_figure(std::cout,
               "Figure 6: graph creation cost, once per AMG level "
               "(seconds, strong-scaled " +
                   std::to_string(paper_rows()) + " rows)",
               "Processes", procs,
               {{"spectrum-like", spectrum}, {"mvapich-like", mvapich}});
  const double ratio = spectrum.back() / mvapich.back();
  std::printf("at %d processes: spectrum/mvapich ratio = %.1fx "
              "(paper: 8.6x)\n",
              graph_ranks().back(), ratio);
  return 0;
}
