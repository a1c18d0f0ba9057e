#include "harness/dist_solve.hpp"

#include <cmath>

#include "amg/solve.hpp"

namespace harness {

using simmpi::Context;
using simmpi::Task;
namespace coll = simmpi::coll;

namespace {

/// Per-rank solver state for one level.
struct LevelState {
  std::span<const sparse::ParCsrRank> a_slice;  // single-element span
  std::unique_ptr<HaloExchange> ex_a, ex_r, ex_p;
  std::vector<double> x, b, tmp, diag;
  long nloc = 0;
};

/// y = A x on this rank (exchange + local compute).
Task<> dist_spmv(Context& ctx, const sparse::ParCsrRank& a, HaloExchange& ex,
                 std::span<const double> x, std::span<double> y) {
  co_await ex.start(ctx, x);
  co_await ex.wait(ctx);
  sparse::spmv_local(a, x, ex.x_ext(), y);
}

Task<double> dist_norm2(Context& ctx, simmpi::Comm comm,
                        std::span<const double> v) {
  double local = 0.0;
  for (double x : v) local += x * x;
  double global = co_await coll::allreduce<double>(
      ctx, comm, local, [](double a, double b) { return a + b; });
  co_return std::sqrt(global);
}

}  // namespace

DistSolveResult run_distributed_amg(const amg::DistHierarchy& dh,
                                    Protocol protocol,
                                    std::span<const double> b_global,
                                    double rel_tol, int max_iters,
                                    const MeasureConfig& cfg) {
  const int p = dh.nranks;
  const int nlevels = dh.num_levels();
  if (static_cast<long>(b_global.size()) != dh.levels[0].n())
    throw simmpi::SimError("run_distributed_amg: rhs size mismatch");

  DistSolveResult result;
  std::vector<std::vector<double>> x_parts(p);
  WindowTimes solve_time(1, p);

  const ExchangeOptions xo{.lpt_balance = cfg.lpt_balance};

  simulate(machine_for(p, cfg), cfg, [&](Context& ctx) -> Task<> {
    const int r = ctx.rank();
    auto comm = ctx.world();

    // ---- setup: per-level state + persistent exchanges -------------------
    std::vector<LevelState> st(nlevels);
    for (int l = 0; l < nlevels; ++l) {
      const auto& lvl = dh.levels[l];
      LevelState& s = st[l];
      s.nloc = lvl.A.row_part[r + 1] - lvl.A.row_part[r];
      s.x.assign(s.nloc, 0.0);
      s.b.assign(s.nloc, 0.0);
      s.tmp.assign(s.nloc, 0.0);
      s.diag = lvl.A.ranks[r].diag.diagonal();
      for (long i = 0; i < s.nloc; ++i)
        if (s.diag[i] == 0.0)
          throw simmpi::SimError("run_distributed_amg: zero diagonal");
      s.ex_a = co_await make_halo_exchange(ctx, comm, protocol,
                                           lvl.halo.ranks[r], xo);
      if (lvl.has_coarse()) {
        s.ex_r = co_await make_halo_exchange(ctx, comm, protocol,
                                             lvl.halo_R.ranks[r], xo);
        s.ex_p = co_await make_halo_exchange(ctx, comm, protocol,
                                             lvl.halo_P.ranks[r], xo);
      }
    }
    const long first0 = dh.levels[0].A.row_part[r];
    for (long i = 0; i < st[0].nloc; ++i) st[0].b[i] = b_global[first0 + i];
    std::vector<double> x_fine(st[0].nloc, 0.0);

    const double bnorm =
        std::max(co_await dist_norm2(ctx, comm, st[0].b), 1e-300);

    // ---- one V-cycle, iterative over levels (down then up) ---------------
    auto jacobi_sweep = [&](Context& c, int l) -> Task<> {
      LevelState& s = st[l];
      co_await dist_spmv(c, dh.levels[l].A.ranks[r], *s.ex_a, s.x, s.tmp);
      for (long i = 0; i < s.nloc; ++i)
        s.x[i] += amg::kJacobiOmega * (s.b[i] - s.tmp[i]) / s.diag[i];
    };
    auto coarse_solve = [&](Context& c) -> Task<> {
      // Gather the coarsest rhs everywhere and solve redundantly.
      LevelState& s = st[nlevels - 1];
      const auto& lvl = dh.levels[nlevels - 1];
      auto all_b = co_await coll::allgatherv<double>(c, comm, s.b);
      std::vector<double> xg(all_b.size(), 0.0);
      amg::dense_solve(lvl.A.gather(), all_b, xg);
      const long first = lvl.A.row_part[r];
      for (long i = 0; i < s.nloc; ++i) s.x[i] = xg[first + i];
    };
    auto vcycle = [&](Context& c) -> Task<> {
      st[0].x = x_fine;
      for (int l = 0; l < nlevels - 1; ++l) {
        LevelState& s = st[l];
        if (l > 0) std::fill(s.x.begin(), s.x.end(), 0.0);
        co_await jacobi_sweep(c, l);
        // residual
        co_await dist_spmv(c, dh.levels[l].A.ranks[r], *s.ex_a, s.x, s.tmp);
        for (long i = 0; i < s.nloc; ++i) s.tmp[i] = s.b[i] - s.tmp[i];
        // restrict into level l+1 rhs
        co_await s.ex_r->start(c, s.tmp);
        co_await s.ex_r->wait(c);
        sparse::spmv_local(dh.levels[l].R.ranks[r], s.tmp, s.ex_r->x_ext(),
                           st[l + 1].b);
      }
      co_await coarse_solve(c);
      for (int l = nlevels - 2; l >= 0; --l) {
        LevelState& s = st[l];
        co_await s.ex_p->start(c, st[l + 1].x);
        co_await s.ex_p->wait(c);
        sparse::spmv_local(dh.levels[l].P.ranks[r], st[l + 1].x,
                           s.ex_p->x_ext(), s.tmp);
        for (long i = 0; i < s.nloc; ++i) s.x[i] += s.tmp[i];
        co_await jacobi_sweep(c, l);
      }
      x_fine = st[0].x;
    };

    // ---- stationary iteration --------------------------------------------
    co_await ctx.engine().sync_reset(ctx);
    for (int it = 0; it < max_iters; ++it) {
      // relative residual
      co_await dist_spmv(ctx, dh.levels[0].A.ranks[r], *st[0].ex_a, x_fine,
                         st[0].tmp);
      for (long i = 0; i < st[0].nloc; ++i)
        st[0].tmp[i] = st[0].b[i] - st[0].tmp[i];
      const double res =
          (co_await dist_norm2(ctx, comm, st[0].tmp)) / bnorm;
      if (r == 0) result.residual_history.push_back(res);
      if (res < rel_tol) {
        if (r == 0) result.converged = true;
        break;
      }
      co_await vcycle(ctx);
    }
    solve_time.stamp(0, r, ctx.now());
    x_parts[r] = x_fine;
    co_return;
  });

  result.solve_seconds = solve_time.max(0);
  for (const auto& part : x_parts)
    result.solution.insert(result.solution.end(), part.begin(), part.end());
  return result;
}

}  // namespace harness
