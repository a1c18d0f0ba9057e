#include "amg/hierarchy.hpp"

#include "amg/interp.hpp"
#include "amg/strength.hpp"

namespace amg {

double Hierarchy::grid_complexity() const {
  double total = 0;
  for (const auto& l : levels) total += l.n();
  return total / levels.front().n();
}

double Hierarchy::operator_complexity() const {
  double total = 0;
  for (const auto& l : levels) total += static_cast<double>(l.A.nnz());
  return total / static_cast<double>(levels.front().A.nnz());
}

Hierarchy Hierarchy::build(sparse::Csr A, const Options& opts) {
  if (A.rows() != A.cols())
    throw sparse::Error("Hierarchy::build: matrix must be square");
  Hierarchy h;
  h.options = opts;
  h.levels.push_back(Level{std::move(A), {}, {}, {}, {}});

  const sparse::Threads bt{opts.threads};
  while (h.num_levels() < kMaxLevels &&
         h.levels.back().n() > kMinCoarseSize) {
    Level& lvl = h.levels.back();
    const sparse::Csr S = strength(lvl.A, kStrengthTheta, bt);
    std::vector<CF> cf = coarsen_rs(S);
    std::vector<int> cpts = coarse_points(cf);
    const int nc = static_cast<int>(cpts.size());
    if (nc == 0 || nc == lvl.n()) break;  // coarsening stalled

    sparse::Csr P =
        direct_interpolation(lvl.A, S, cf, kInterpMaxElements, bt);
    sparse::Csr R = P.transpose(bt);
    sparse::Csr Ac = sparse::galerkin_product(R, lvl.A, P, bt)
                         .pruned(kGalerkinPruneTol, bt);

    lvl.P = std::move(P);
    lvl.R = std::move(R);
    lvl.cf = std::move(cf);
    lvl.cpoints = std::move(cpts);
    h.levels.push_back(Level{std::move(Ac), {}, {}, {}, {}});
  }
  return h;
}

}  // namespace amg
