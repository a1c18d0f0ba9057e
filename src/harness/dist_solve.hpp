#pragma once
/// \file dist_solve.hpp
/// \brief Distributed AMG solve phase running on the simulator, with every
/// halo exchange routed through a chosen protocol — the paper's end-to-end
/// scenario (neighborhood collectives inside BoomerAMG's SpMVs).

#include <vector>

#include "amg/distribute.hpp"
#include "harness/exchange.hpp"
#include "harness/measure.hpp"

namespace harness {

/// Result of a distributed stationary AMG solve.
struct DistSolveResult {
  std::vector<double> residual_history;  ///< relative ||b-Ax|| per iteration
  std::vector<double> solution;          ///< gathered global solution
  double solve_seconds = 0.0;            ///< simulated time (max over ranks)
  bool converged = false;
};

/// Run `max_iters` V-cycles (or stop at rel_tol) on the distributed
/// hierarchy, using `protocol` for every SpMV halo exchange (fine and
/// coarse operators, restriction, prolongation).  The coarsest system is
/// solved redundantly on every rank after an allgather.
DistSolveResult run_distributed_amg(const amg::DistHierarchy& dh,
                                    Protocol protocol,
                                    std::span<const double> b_global,
                                    double rel_tol = 1e-8, int max_iters = 60,
                                    const MeasureConfig& cfg = {});

}  // namespace harness
