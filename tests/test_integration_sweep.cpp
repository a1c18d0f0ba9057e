/// \file test_integration_sweep.cpp
/// \brief Cross-module integration sweeps: a distributed SpMV through every
/// protocol must equal the sequential SpMV for any (stencil, rank count,
/// region shape) combination, and the AMG pipeline must converge across
/// the problem family.

#include <gtest/gtest.h>

#include <random>

#include "amg/solve.hpp"
#include "harness/exchange.hpp"
#include "sparse/par_csr.hpp"
#include "sparse/stencil.hpp"

using namespace harness;
using namespace simmpi;
using sparse::Csr;

namespace {

enum class Problem { laplace5, laplace9, laplace27, rot_aniso, rot_mild };

Csr make_problem(Problem p) {
  switch (p) {
    case Problem::laplace5: return sparse::laplacian_5pt(20, 18);
    case Problem::laplace9: return sparse::laplacian_9pt(16, 16);
    case Problem::laplace27: return sparse::laplacian_27pt(7, 6, 6);
    case Problem::rot_aniso: return sparse::paper_problem(20, 20);
    case Problem::rot_mild: return sparse::rotated_aniso_7pt(18, 18, 0.9, 0.2);
  }
  return {};
}

const char* name_of(Problem p) {
  switch (p) {
    case Problem::laplace5: return "laplace5";
    case Problem::laplace9: return "laplace9";
    case Problem::laplace27: return "laplace27";
    case Problem::rot_aniso: return "rot_aniso";
    case Problem::rot_mild: return "rot_mild";
  }
  return "?";
}

/// Distributed SpMV y = A x through `protocol`, all ranks simulated.
std::vector<double> dist_spmv_all_protocols_check(const Csr& a, int nranks,
                                                  int rpn, Protocol protocol) {
  auto part = sparse::block_partition(a.rows(), nranks);
  sparse::ParCsr par = sparse::ParCsr::distribute(a, part, part);
  sparse::Halo halo = sparse::Halo::build(par);

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> d(-1, 1);
  std::vector<double> x(a.rows());
  for (auto& v : x) v = d(rng);
  auto xs = sparse::split_vector(x, part);

  Engine eng(Machine::with_region_size(nranks, rpn), CostParams::lassen());
  std::vector<std::vector<double>> ys(nranks);
  eng.run([&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    auto ex = co_await make_halo_exchange(ctx, ctx.world(), protocol,
                                          halo.ranks[r]);
    ys[r].resize(sparse::local_size(part, r));
    co_await ex->start(ctx, xs[r]);
    co_await ex->wait(ctx);
    sparse::spmv_local(par.ranks[r], xs[r], ex->x_ext(), ys[r]);
    co_return;
  });
  std::vector<double> y = sparse::join_vector(ys);
  std::vector<double> ref(a.rows());
  a.spmv(x, ref);
  for (int i = 0; i < a.rows(); ++i)
    EXPECT_NEAR(y[i], ref[i], 1e-12) << "row " << i;
  return y;
}

}  // namespace

class SpmvSweep
    : public ::testing::TestWithParam<std::tuple<Problem, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Grid, SpmvSweep,
    ::testing::Combine(::testing::Values(Problem::laplace5, Problem::laplace9,
                                         Problem::laplace27,
                                         Problem::rot_aniso,
                                         Problem::rot_mild),
                       ::testing::Values(4, 12, 32),  // ranks
                       ::testing::Values(1, 4)),      // ranks per region
    [](const auto& info) {
      return std::string(name_of(std::get<0>(info.param))) + "_p" +
             std::to_string(std::get<1>(info.param)) + "_r" +
             std::to_string(std::get<2>(info.param));
    });

TEST_P(SpmvSweep, DistributedSpmvMatchesSequentialThroughEveryProtocol) {
  const auto [prob, nranks, rpn] = GetParam();
  Csr a = make_problem(prob);
  for (Protocol p : kAllProtocols)
    dist_spmv_all_protocols_check(a, nranks, rpn, p);
}

class AmgSweep : public ::testing::TestWithParam<Problem> {};
INSTANTIATE_TEST_SUITE_P(Problems, AmgSweep,
                         ::testing::Values(Problem::laplace5,
                                           Problem::laplace9,
                                           Problem::rot_aniso,
                                           Problem::rot_mild),
                         [](const auto& info) { return name_of(info.param); });

TEST_P(AmgSweep, PcgWithAmgPreconditionerConverges) {
  Csr a = make_problem(GetParam());
  amg::Hierarchy h = amg::Hierarchy::build(a);
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> d(-1, 1);
  std::vector<double> b(a.rows());
  for (auto& v : b) v = d(rng);
  std::vector<double> x(a.rows(), 0.0);
  auto res = amg::amg_pcg(h, b, x, 1e-8, 300);
  EXPECT_TRUE(res.converged)
      << name_of(GetParam()) << " residual " << res.final_residual;
}

TEST_P(AmgSweep, HierarchyInvariantsHold) {
  Csr a = make_problem(GetParam());
  amg::Hierarchy h = amg::Hierarchy::build(a);
  for (int l = 0; l + 1 < h.num_levels(); ++l) {
    const auto& lvl = h.levels[l];
    // Every C point maps to exactly one coarse column with weight 1.
    auto cpts = amg::coarse_points(lvl.cf);
    EXPECT_EQ(static_cast<int>(cpts.size()), h.levels[l + 1].n());
    // P has no row with more entries than the truncation limit (+C rows=1).
    for (int i = 0; i < lvl.P.rows(); ++i)
      EXPECT_LE(lvl.P.row_cols(i).size(),
                static_cast<std::size_t>(amg::kInterpMaxElements));
  }
}

TEST(IntegrationSweep, WeakScalingFamilyHasConsistentHalos) {
  // The weak-scaling problem family used by Figure 13: every size must
  // produce globally consistent halos (send==recv totals, gid alignment).
  for (int p : {32, 64, 128}) {
    int nx = 0, ny = 0;
    sparse::factor_grid(256L * p, nx, ny);
    Csr a = sparse::paper_problem(nx, ny);
    auto part = sparse::block_partition(a.rows(), p);
    sparse::ParCsr par = sparse::ParCsr::distribute(a, part, part);
    sparse::Halo halo = sparse::Halo::build(par);
    long send = 0, recv = 0;
    for (const auto& rh : halo.ranks) {
      send += rh.total_send();
      recv += rh.total_recv();
      EXPECT_EQ(rh.send_idx.size(), rh.send_gids.size());
    }
    EXPECT_EQ(send, recv) << "p=" << p;
    EXPECT_GT(send, 0) << "p=" << p;
  }
}

TEST(IntegrationSweep, RegionShapeDoesNotChangeDeliveredData) {
  // Same matrix, same ranks, different machine shapes: the locality
  // protocol's routing changes but the delivered halo must not.
  Csr a = sparse::paper_problem(16, 16);
  auto y1 = dist_spmv_all_protocols_check(a, 16, 4,
                                          Protocol::neighbor_full);
  auto y2 = dist_spmv_all_protocols_check(a, 16, 8,
                                          Protocol::neighbor_full);
  auto y3 = dist_spmv_all_protocols_check(a, 16, 16,
                                          Protocol::neighbor_full);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_DOUBLE_EQ(y1[i], y2[i]);
    EXPECT_DOUBLE_EQ(y1[i], y3[i]);
  }
}
