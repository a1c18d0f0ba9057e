/// \file test_amg.cpp
/// \brief AMG components: strength, coarsening, interpolation, hierarchy,
/// and solver convergence.

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/solve.hpp"
#include "amg/strength.hpp"
#include "sparse/stencil.hpp"

using namespace amg;
using sparse::Csr;

namespace {
std::vector<double> random_vec(int n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> d(-1, 1);
  std::vector<double> v(n);
  for (auto& x : v) x = d(rng);
  return v;
}
}  // namespace

TEST(Strength, LaplaceAllNeighborsStrong) {
  Csr a = sparse::laplacian_5pt(5, 5);
  Csr s = strength(a, 0.25);
  const int c = sparse::grid_index(5, 2, 2);
  EXPECT_EQ(s.row_cols(c).size(), 4u);  // all four neighbors equal => strong
  // No self connections.
  for (int i = 0; i < s.rows(); ++i)
    for (int j : s.row_cols(i)) EXPECT_NE(j, i);
}

TEST(Strength, RotatedAnisoStrongOnlyOnDiagonal) {
  // theta=45, eps=0.001: |NE/SW| = 0.4995 >> |E/W/N/S| = 0.001, so with
  // theta_strength = 0.25 only the NE/SW couplings are strong.
  Csr a = sparse::paper_problem(8, 8);
  Csr s = strength(a, 0.25);
  const int c = sparse::grid_index(8, 4, 4);
  auto cols = s.row_cols(c);
  EXPECT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], sparse::grid_index(8, 3, 3));
  EXPECT_EQ(cols[1], sparse::grid_index(8, 5, 5));
}

TEST(Strength, ThetaOneKeepsOnlyMaxima) {
  Csr a = sparse::rotated_aniso_7pt(6, 6, 0.0, 0.1);
  Csr s = strength(a, 1.0);
  const int c = sparse::grid_index(6, 3, 3);
  // Only the E/W couplings (magnitude 1.0) survive theta = 1.
  auto cols = s.row_cols(c);
  EXPECT_EQ(cols.size(), 2u);
}

TEST(Strength, RejectsBadArguments) {
  Csr a(3, 4);
  EXPECT_THROW(strength(a, 0.25), sparse::Error);
  Csr b = sparse::laplacian_5pt(3, 3);
  EXPECT_THROW(strength(b, -0.1), sparse::Error);
  EXPECT_THROW(strength(b, 1.5), sparse::Error);
}

TEST(CoarsenRs, SplittingCoversAllPoints) {
  Csr a = sparse::laplacian_5pt(10, 10);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  EXPECT_EQ(cf.size(), 100u);
  int nc = static_cast<int>(coarse_points(cf).size());
  EXPECT_GT(nc, 0);
  EXPECT_LT(nc, 100);
}

TEST(CoarsenRs, EveryFinePointHasAStrongCoarseNeighborOnLaplace) {
  // The essential RS property on nicely-connected graphs: F points see at
  // least one C point among their strong neighbors.
  Csr a = sparse::laplacian_5pt(12, 12);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  for (int i = 0; i < s.rows(); ++i) {
    if (cf[i] == CF::coarse) continue;
    bool has_c = false;
    for (int j : s.row_cols(i)) has_c = has_c || cf[j] == CF::coarse;
    EXPECT_TRUE(has_c) << "F point " << i << " has no strong C neighbor";
  }
}

TEST(CoarsenRs, IsolatedPointsBecomeCoarse) {
  // A diagonal matrix has no strong connections at all.
  Csr a = Csr::identity(5);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  for (auto m : cf) EXPECT_EQ(m, CF::coarse);
}

TEST(CoarsenRs, AnisotropicCoarsensAlongStrongDirection) {
  // Strong couplings only along NE/SW diagonals: RS should alternate C/F
  // along each diagonal line, roughly halving the grid.
  Csr a = sparse::paper_problem(16, 16);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  const int nc = static_cast<int>(coarse_points(cf).size());
  EXPECT_GT(nc, 256 / 3);
  EXPECT_LT(nc, 2 * 256 / 3);
}

TEST(Interp, CoarsePointsInterpolateExactly) {
  Csr a = sparse::laplacian_5pt(8, 8);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  Csr p = direct_interpolation(a, s, cf);
  auto cpts = coarse_points(cf);
  EXPECT_EQ(p.cols(), static_cast<int>(cpts.size()));
  for (std::size_t j = 0; j < cpts.size(); ++j) {
    EXPECT_EQ(p.row_cols(cpts[j]).size(), 1u);
    EXPECT_DOUBLE_EQ(p.at(cpts[j], static_cast<int>(j)), 1.0);
  }
}

TEST(Interp, ReproducesConstantsInInterior) {
  // For zero-row-sum operators (interior of Laplace), direct interpolation
  // must reproduce the constant vector: P * 1 = 1 on F rows whose full
  // stencil is interior.
  const int nx = 12;
  Csr a = sparse::laplacian_5pt(nx, nx);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  Csr p = direct_interpolation(a, s, cf, /*max_elements=*/8);
  std::vector<double> ones(p.cols(), 1.0), px(p.rows());
  p.spmv(ones, px);
  for (int y = 2; y < nx - 2; ++y)
    for (int x = 2; x < nx - 2; ++x) {
      const int i = sparse::grid_index(nx, x, y);
      // Interior rows of the 5-pt Laplacian have zero row sum.
      double row_sum = 0;
      for (double v : a.row_vals(i)) row_sum += v;
      if (std::abs(row_sum) < 1e-12) {
        EXPECT_NEAR(px[i], 1.0, 1e-10) << i;
      }
    }
}

TEST(Interp, TruncationLimitsRowLengthAndPreservesRowSum) {
  Csr a = sparse::laplacian_9pt(10, 10);
  Csr s = strength(a, 0.25);
  auto cf = coarsen_rs(s);
  Csr full = direct_interpolation(a, s, cf, 100);
  Csr trunc = direct_interpolation(a, s, cf, 2);
  for (int i = 0; i < trunc.rows(); ++i) {
    EXPECT_LE(trunc.row_cols(i).size(), 2u);
    double sf = 0, st = 0;
    for (double v : full.row_vals(i)) sf += v;
    for (double v : trunc.row_vals(i)) st += v;
    EXPECT_NEAR(sf, st, 1e-12) << "row sum changed by truncation at " << i;
  }
}

TEST(Hierarchy, BuildsMultipleLevelsOnPaperProblem) {
  Csr a = sparse::paper_problem(64, 64);
  Hierarchy h = Hierarchy::build(std::move(a));
  EXPECT_GE(h.num_levels(), 5);
  // Sizes strictly decrease.
  for (int l = 1; l < h.num_levels(); ++l)
    EXPECT_LT(h.levels[l].n(), h.levels[l - 1].n());
  // Galerkin dimensions are consistent.
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    EXPECT_EQ(h.levels[l].P.rows(), h.levels[l].n());
    EXPECT_EQ(h.levels[l].P.cols(), h.levels[l + 1].n());
    EXPECT_EQ(h.levels[l].R.rows(), h.levels[l + 1].n());
  }
  EXPECT_LT(h.operator_complexity(), 5.0);
  EXPECT_LT(h.grid_complexity(), 3.0);
}

TEST(Hierarchy, CoarseOperatorIsGalerkin) {
  Csr a = sparse::laplacian_5pt(10, 10);
  Hierarchy h = Hierarchy::build(a);
  const auto& l0 = h.levels[0];
  Csr expect = sparse::galerkin_product(l0.R, l0.A, l0.P)
                   .pruned(kGalerkinPruneTol);
  EXPECT_EQ(h.levels[1].A, expect);
}

TEST(Hierarchy, CoarseOperatorStaysSymmetric) {
  Csr a = sparse::paper_problem(24, 24);
  Hierarchy h = Hierarchy::build(std::move(a));
  for (const auto& lvl : h.levels) {
    Csr t = lvl.A.transpose();
    for (int i = 0; i < lvl.A.rows(); ++i) {
      auto cv = lvl.A.row_vals(i);
      auto tv = t.row_vals(i);
      ASSERT_EQ(cv.size(), tv.size());
      for (std::size_t k = 0; k < cv.size(); ++k)
        EXPECT_NEAR(cv[k], tv[k], 1e-10);
    }
  }
}

TEST(Hierarchy, DeepHierarchyOnAnisotropicProblem) {
  // The paper's rot-aniso problem coarsens slowly (essentially 1D along the
  // strong diagonal), yielding a deep hierarchy like Figs. 8-11.
  Csr a = sparse::paper_problem(64, 64);
  Hierarchy h = Hierarchy::build(std::move(a));
  EXPECT_GE(h.num_levels(), 7);
}

TEST(Solve, JacobiReducesResidual) {
  Csr a = sparse::laplacian_5pt(10, 10);
  auto b = random_vec(a.rows(), 1);
  std::vector<double> x(a.rows(), 0.0);
  double prev = residual_norm(a, b, x);
  for (int s = 0; s < 5; ++s) {
    jacobi(a, b, x);
    const double cur = residual_norm(a, b, x);
    EXPECT_LT(cur, prev);
    prev = cur;
  }
}

TEST(Solve, DenseSolveExactOnSmallSystem) {
  Csr a = sparse::laplacian_5pt(4, 3);
  auto xref = random_vec(a.rows(), 2);
  std::vector<double> b(a.rows());
  a.spmv(xref, b);
  std::vector<double> x(a.rows(), 0.0);
  dense_solve(a, b, x);
  for (int i = 0; i < a.rows(); ++i) EXPECT_NEAR(x[i], xref[i], 1e-10);
}

TEST(Solve, DenseSolveRejectsSingular) {
  Csr a(2, 2);  // zero matrix
  std::vector<double> b{1, 1}, x(2);
  EXPECT_THROW(dense_solve(a, b, x), sparse::Error);
}

TEST(Solve, VCycleConvergesOnLaplace) {
  Csr a = sparse::laplacian_5pt(32, 32);
  Hierarchy h = Hierarchy::build(a);
  auto b = random_vec(a.rows(), 3);
  std::vector<double> x(a.rows(), 0.0);
  auto res = amg_solve(h, b, x, 1e-8, 60);
  EXPECT_TRUE(res.converged) << "residual " << res.final_residual;
  EXPECT_LT(res.iterations, 40);
}

TEST(Solve, AmgPcgConvergesOnPaperProblem) {
  Csr a = sparse::paper_problem(48, 48);
  Hierarchy h = Hierarchy::build(a);
  auto b = random_vec(a.rows(), 4);
  std::vector<double> x(a.rows(), 0.0);
  auto res = amg_pcg(h, b, x, 1e-8, 200);
  EXPECT_TRUE(res.converged) << "residual " << res.final_residual;
  EXPECT_LT(residual_norm(a, b, x) / residual_norm(a, b, std::vector<double>(a.rows(), 0.0)), 1e-7);
}

TEST(Solve, SolutionMatchesDenseReference) {
  Csr a = sparse::laplacian_5pt(8, 8);
  Hierarchy h = Hierarchy::build(a);
  auto b = random_vec(a.rows(), 6);
  std::vector<double> x(a.rows(), 0.0), xd(a.rows(), 0.0);
  amg_pcg(h, b, x, 1e-12, 500);
  dense_solve(a, b, xd);
  for (int i = 0; i < a.rows(); ++i) EXPECT_NEAR(x[i], xd[i], 1e-8);
}
