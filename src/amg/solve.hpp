#pragma once
/// \file solve.hpp
/// \brief Sequential solve-phase kernels: smoothers, V-cycle, PCG.
///
/// The V-cycle smooths with one weighted-Jacobi pre-sweep and one
/// post-sweep at `kJacobiOmega`, as does the distributed solve
/// (harness/dist_solve.hpp).

#include <functional>
#include <span>

#include "amg/hierarchy.hpp"

namespace amg {

/// Weighted-Jacobi damping of every smoothing sweep.
inline constexpr double kJacobiOmega = 2.0 / 3.0;

/// x += kJacobiOmega * D^{-1} (b - A x)   (one weighted-Jacobi sweep).
void jacobi(const sparse::Csr& A, std::span<const double> b,
            std::span<double> x);

/// Dense LU solve with partial pivoting (coarsest-level solver).
void dense_solve(const sparse::Csr& A, std::span<const double> b,
                 std::span<double> x);

/// One V-cycle on level `lvl` of the hierarchy: x <- V(x, b).
void vcycle(const Hierarchy& h, int lvl, std::span<const double> b,
            std::span<double> x);

/// Result of an iterative solve.
struct SolveResult {
  int iterations = 0;
  double final_residual = 0.0;  ///< relative two-norm
  bool converged = false;
};

/// Preconditioner interface: z = M^{-1} r.
using Precond =
    std::function<void(std::span<const double>, std::span<double>)>;

/// Preconditioned conjugate gradients on A x = b (x is in/out).
SolveResult pcg(const sparse::Csr& A, std::span<const double> b,
                std::span<double> x, const Precond& M, double rel_tol = 1e-8,
                int max_iter = 500);

/// Stationary AMG iteration (repeated V-cycles) until relative residual
/// drops below rel_tol.
SolveResult amg_solve(const Hierarchy& h, std::span<const double> b,
                      std::span<double> x, double rel_tol = 1e-8,
                      int max_iter = 200);

/// Convenience: PCG preconditioned with one V-cycle of `h`.
SolveResult amg_pcg(const Hierarchy& h, std::span<const double> b,
                    std::span<double> x, double rel_tol = 1e-8,
                    int max_iter = 500);

/// Two-norm of b - A x.
double residual_norm(const sparse::Csr& A, std::span<const double> b,
                     std::span<const double> x);

}  // namespace amg
