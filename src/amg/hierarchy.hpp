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

/// Construction constants of the paper's setting: classical strength,
/// Ruge-Stueben coarsening (coarsen_rs), direct interpolation.
inline constexpr double kStrengthTheta = 0.25;  ///< strength threshold
inline constexpr int kInterpMaxElements = 4;    ///< P row truncation
inline constexpr int kMaxLevels = 30;
inline constexpr int kMinCoarseSize = 16;  ///< rows at which coarsening stops
inline constexpr double kGalerkinPruneTol = 1e-12;  ///< drop zero RAP entries

/// Hierarchy construction options.
struct Options {
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
