/// \file test_sparse_threads.cpp
/// \brief The determinism contract of the two-phase sparse kernels and of
/// hierarchy construction: every `sparse::Threads` width produces
/// byte-identical output — rowptr/colind/vals of each kernel, deep-equal
/// hierarchies, and distributed hierarchies whose every rank slice matches
/// byte for byte (see docs/ARCHITECTURE.md, "Parallel construction").

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "amg/coarsen.hpp"
#include "amg/distribute.hpp"
#include "amg/hierarchy.hpp"
#include "amg/interp.hpp"
#include "amg/strength.hpp"
#include "sparse/csr.hpp"
#include "sparse/stencil.hpp"

using sparse::Csr;
using sparse::Threads;

namespace {

constexpr int kWidths[] = {2, 4, 7};

/// memcmp over two equally sized arrays; an empty array may carry a null
/// pointer, which memcmp must not see.
bool same_bytes(std::span<const std::byte> a, std::span<const std::byte> b) {
  return a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0;
}

/// Byte-level equality of the three CSR arrays (EXPECT_EQ on Csr would
/// also pass for equal values that were re-derived; memcmp pins the exact
/// bytes the determinism contract promises).
void expect_bytes_identical(const Csr& a, const Csr& b, const char* what,
                            int width) {
  ASSERT_EQ(a.rows(), b.rows()) << what << " width " << width;
  ASSERT_EQ(a.cols(), b.cols()) << what << " width " << width;
  ASSERT_EQ(a.nnz(), b.nnz()) << what << " width " << width;
  EXPECT_TRUE(same_bytes(std::as_bytes(a.rowptr()), std::as_bytes(b.rowptr())))
      << what << ": rowptr bytes diverged at width " << width;
  EXPECT_TRUE(same_bytes(std::as_bytes(a.colind()), std::as_bytes(b.colind())))
      << what << ": colind bytes diverged at width " << width;
  EXPECT_TRUE(same_bytes(std::as_bytes(a.values()), std::as_bytes(b.values())))
      << what << ": vals bytes diverged at width " << width;
}

/// An irregular non-symmetric test operator: the paper problem with a few
/// rows knocked out of pattern via pruning-resistant perturbation.
Csr test_matrix() {
  Csr a = sparse::paper_problem(48, 32);
  auto vals = a.values();
  for (std::size_t k = 0; k < vals.size(); k += 7) vals[k] *= 1.0 + 1e-3 * k;
  return a;
}

}  // namespace

TEST(SparseThreads, MultiplyBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr base = a.multiply(a, Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, a.multiply(a, Threads{w}), "multiply", w);
}

TEST(SparseThreads, TransposeBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr base = a.transpose(Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, a.transpose(Threads{w}), "transpose", w);
}

TEST(SparseThreads, PrunedBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr base = a.pruned(1e-3, Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, a.pruned(1e-3, Threads{w}), "pruned", w);
}

TEST(SparseThreads, SelectRowsAndPermutedBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  std::vector<int> rows;
  for (int r = 0; r < a.rows(); r += 3) rows.push_back(r);
  std::vector<int> perm(a.rows());
  for (int i = 0; i < a.rows(); ++i)
    perm[i] = (i * 977 + 13) % a.rows();  // 977 coprime to 48*32
  const Csr sel1 = a.select_rows(rows, Threads{1});
  const Csr perm1 = a.permuted(perm, perm, Threads{1});
  for (int w : kWidths) {
    expect_bytes_identical(sel1, a.select_rows(rows, Threads{w}),
                           "select_rows", w);
    expect_bytes_identical(perm1, a.permuted(perm, perm, Threads{w}),
                           "permuted", w);
  }
}

TEST(SparseThreads, StrengthAndInterpBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr s1 = amg::strength(a, 0.25, Threads{1});
  const std::vector<amg::CF> cf = amg::coarsen(s1, amg::CoarsenAlgo::rs);
  const Csr p1 = amg::direct_interpolation(a, s1, cf, 4, Threads{1});
  for (int w : kWidths) {
    const Csr sw = amg::strength(a, 0.25, Threads{w});
    expect_bytes_identical(s1, sw, "strength", w);
    expect_bytes_identical(
        p1, amg::direct_interpolation(a, sw, cf, 4, Threads{w}), "interp", w);
  }
}

TEST(SparseThreads, GalerkinProductBitIdenticalAcrossWidths) {
  const Csr a = test_matrix();
  const Csr s = amg::strength(a, 0.25, Threads{1});
  const std::vector<amg::CF> cf = amg::coarsen(s, amg::CoarsenAlgo::rs);
  const Csr p = amg::direct_interpolation(a, s, cf, 4, Threads{1});
  const Csr r = p.transpose(Threads{1});
  const Csr base = sparse::galerkin_product(r, a, p, Threads{1});
  for (int w : kWidths)
    expect_bytes_identical(base, sparse::galerkin_product(r, a, p, Threads{w}),
                           "galerkin", w);
}

TEST(SparseThreads, HierarchyBuildDeepEqualAcrossWidths) {
  const Csr a = sparse::paper_problem(64, 32);
  amg::Options opts;
  opts.threads = 1;
  const amg::Hierarchy base = amg::Hierarchy::build(a, opts);
  EXPECT_GE(base.num_levels(), 3) << "problem too small to exercise levels";
  for (int w : kWidths) {
    amg::Options wide = opts;
    wide.threads = w;
    const amg::Hierarchy h = amg::Hierarchy::build(a, wide);
    // Deep equality over every level: operators, transfer operators, CF
    // splits, coarse-point lists.  (Options differ in the threads knob by
    // construction, so compare levels, not the whole struct.)
    EXPECT_EQ(h.levels, base.levels) << "hierarchy diverged at width " << w;
  }
}

TEST(SparseThreads, DistributedHierarchyIdenticalAcrossWidths) {
  // The strongest end-to-end form of the contract: build + distribute at
  // every width, then compare every rank slice of every level's A, P and R
  // byte for byte, and each level's partitions, column maps, halos and
  // perms by value.
  const Csr a = sparse::paper_problem(32, 16);
  auto build = [&](int width) {
    amg::Options opts;
    opts.threads = width;
    return amg::distribute_hierarchy(amg::Hierarchy::build(a, opts), 4);
  };
  const amg::DistHierarchy base = build(1);
  ASSERT_GE(base.num_levels(), 2) << "problem too small to exercise levels";
  for (int w : kWidths) {
    const amg::DistHierarchy dh = build(w);
    ASSERT_EQ(dh.num_levels(), base.num_levels()) << "width " << w;
    for (int l = 0; l < base.num_levels(); ++l) {
      const amg::DistLevel& got = dh.levels[l];
      const amg::DistLevel& want = base.levels[l];
      for (const auto op : {&amg::DistLevel::A, &amg::DistLevel::P,
                            &amg::DistLevel::R}) {
        ASSERT_EQ((got.*op).num_ranks(), (want.*op).num_ranks())
            << "level " << l << " width " << w;
        for (int r = 0; r < (want.*op).num_ranks(); ++r) {
          expect_bytes_identical((want.*op).ranks[r].diag,
                                 (got.*op).ranks[r].diag, "diag", w);
          expect_bytes_identical((want.*op).ranks[r].offd,
                                 (got.*op).ranks[r].offd, "offd", w);
        }
      }
      EXPECT_EQ(got, want) << "distributed level " << l
                           << " diverged at width " << w;
    }
  }
}
