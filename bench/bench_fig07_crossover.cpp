/// \file bench_fig07_crossover.cpp
/// \brief Figure 7: initialization cost plus k iterations of Start+Wait for
/// every protocol (once per AMG level each), 524 288 rows on 2048 cores.
/// The crossover iteration counts — where an optimized collective's cheaper
/// iterations amortize its costlier init — are the headline numbers
/// (paper: 40 iterations for partially optimized, 22 for fully optimized).

#include "bench_common.hpp"

using namespace benchfig;
using harness::Protocol;

int main(int argc, char** argv) {
  init(&argc, argv);
  const ProtocolSet s =
      measure_all(harness::paper_dist_hierarchy(paper_rows(), paper_ranks()));
  double init_s[4] = {};  // summed over levels, per protocol
  double iter_s[4] = {};
  for (int p = 0; p < 4; ++p) {
    for (const auto& lm : s.per[p]) {
      init_s[p] += lm.init_seconds;
      iter_s[p] += lm.start_wait_seconds;
    }
  }
  std::vector<double> iterations;  // x axis 0..60
  std::vector<Series> series{{"Standard Hypre", {}},  // init + k * iter
                             {"Standard Neighbor", {}},
                             {"Partially Optimized", {}},
                             {"Fully Optimized", {}}};
  for (int k = 0; k <= 60; k += 5) {
    iterations.push_back(k);
    for (int p = 0; p < 4; ++p)
      series[p].y.push_back(init_s[p] + k * iter_s[p]);
  }
  auto crossover = [&](Protocol opt) {
    const int b = static_cast<int>(Protocol::hypre);
    const int o = static_cast<int>(opt);
    return harness::crossover_iterations(init_s[b], iter_s[b], init_s[o],
                                         iter_s[o]);
  };
  const int partial = crossover(Protocol::neighbor_partial);
  const int full = crossover(Protocol::neighbor_full);

  std::vector<Row> rows;
  for (int p = 0; p < 4; ++p)
    rows.push_back({"BM_InitPlusIterations", {p},
                    harness::to_string(static_cast<Protocol>(p)),
                    {{"init_sim_seconds", init_s[p]},
                     {"per_iter_sim_seconds", iter_s[p]}}});
  rows.push_back({"BM_Crossover", {}, "",
                  {{"crossover_partial_iters", partial},
                   {"crossover_full_iters", full}}});
  run(rows);
  print_figure(std::cout,
               "Figure 7: init + k iterations (seconds, " + paper_scale() +
                   ")",
               "Iterations", iterations, series);
  std::printf(
      "crossover vs Standard Hypre: partial at %d iterations (paper: 40), "
      "full at %d iterations (paper: 22)\n",
      partial, full);
  return 0;
}
