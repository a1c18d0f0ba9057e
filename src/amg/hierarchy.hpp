#pragma once
/// \file hierarchy.hpp
/// \brief BoomerAMG-style multigrid hierarchy construction.
///
/// The hierarchy is built once in *canonical* numbering (coarse points in
/// ascending fine order).  Rank-dependent "distributed" numbering — where a
/// coarse point inherits its fine point's owner and ranks own contiguous
/// coarse blocks, exactly as Hypre renumbers coarse grids — is applied later
/// by amg::distribute_hierarchy (see distribute.hpp), so one hierarchy can
/// be partitioned for many process counts.

#include <vector>

#include "amg/coarsen.hpp"
#include "sparse/csr.hpp"

namespace amg {

/// Hierarchy construction options (defaults follow the paper's setting:
/// classical strength 0.25, RS coarsening, direct interpolation).
struct Options {
  double strength_theta = 0.25;
  CoarsenAlgo coarsen_algo = CoarsenAlgo::rs;
  int interp_max_elements = 4;
  int max_levels = 30;
  int min_coarse_size = 16;  ///< stop coarsening below this many rows
  double galerkin_prune_tol = 1e-12;  ///< drop numerically-zero RAP entries
  /// Worker threads of the construction kernels (strength, interpolation,
  /// transpose, Galerkin SpGEMM).  <= 0 = auto: COLLOM_BUILD_THREADS, else
  /// COLLOM_SIM_THREADS, else hardware concurrency (sparse::Threads).  The
  /// built levels are bit-identical for every width, so this knob is
  /// wall-time-only.
  int threads = 0;
};

/// One level: operator plus (except on the coarsest) the transfer operators
/// and splitting that produced the next level.
struct Level {
  sparse::Csr A;
  sparse::Csr P;               ///< n_l x n_{l+1}; empty on coarsest level
  sparse::Csr R;               ///< P^T, cached
  std::vector<CF> cf;          ///< CF split of this level; empty on coarsest
  std::vector<int> cpoints;    ///< fine indices of C points, ascending

  bool is_coarsest() const { return cpoints.empty(); }
  int n() const { return A.rows(); }

  bool operator==(const Level&) const = default;
};

/// A full AMG hierarchy in canonical numbering.
struct Hierarchy {
  std::vector<Level> levels;
  Options options;

  int num_levels() const { return static_cast<int>(levels.size()); }
  /// Total grid points over all levels / fine points (grid complexity).
  double grid_complexity() const;
  /// Total nonzeros over all levels / fine nonzeros (operator complexity).
  double operator_complexity() const;

  /// Build from a (square, SPD-ish) fine operator.  Construction is
  /// threaded per Options::threads; the result is bit-identical for every
  /// width (see docs/ARCHITECTURE.md, "Parallel construction").
  static Hierarchy build(sparse::Csr A, const Options& opts = {});
};

}  // namespace amg
