#include "amg/solve.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace amg {

void jacobi(const sparse::Csr& A, std::span<const double> b,
            std::span<double> x) {
  const int n = A.rows();
  std::vector<double> r(n);
  A.spmv(x, r);
  for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const auto d = A.diagonal();
  for (int i = 0; i < n; ++i) {
    if (d[i] == 0.0) throw sparse::Error("jacobi: zero diagonal");
    x[i] += kJacobiOmega * r[i] / d[i];
  }
}

void dense_solve(const sparse::Csr& A, std::span<const double> b,
                 std::span<double> x) {
  const int n = A.rows();
  std::vector<double> m(static_cast<std::size_t>(n) * n, 0.0);
  for (int r = 0; r < n; ++r) {
    auto c = A.row_cols(r);
    auto v = A.row_vals(r);
    for (std::size_t k = 0; k < c.size(); ++k)
      m[static_cast<std::size_t>(r) * n + c[k]] = v[k];
  }
  std::vector<double> rhs(b.begin(), b.end());
  std::vector<int> piv(n);
  for (int i = 0; i < n; ++i) piv[i] = i;
  for (int col = 0; col < n; ++col) {
    int best = col;
    for (int r = col + 1; r < n; ++r)
      if (std::abs(m[static_cast<std::size_t>(r) * n + col]) >
          std::abs(m[static_cast<std::size_t>(best) * n + col]))
        best = r;
    if (m[static_cast<std::size_t>(best) * n + col] == 0.0)
      throw sparse::Error("dense_solve: singular matrix");
    if (best != col) {
      for (int c = 0; c < n; ++c)
        std::swap(m[static_cast<std::size_t>(best) * n + c],
                  m[static_cast<std::size_t>(col) * n + c]);
      std::swap(rhs[best], rhs[col]);
    }
    const double pivot = m[static_cast<std::size_t>(col) * n + col];
    for (int r = col + 1; r < n; ++r) {
      const double f = m[static_cast<std::size_t>(r) * n + col] / pivot;
      if (f == 0.0) continue;
      for (int c = col; c < n; ++c)
        m[static_cast<std::size_t>(r) * n + c] -=
            f * m[static_cast<std::size_t>(col) * n + c];
      rhs[r] -= f * rhs[col];
    }
  }
  for (int r = n - 1; r >= 0; --r) {
    double acc = rhs[r];
    for (int c = r + 1; c < n; ++c)
      acc -= m[static_cast<std::size_t>(r) * n + c] * x[c];
    x[r] = acc / m[static_cast<std::size_t>(r) * n + r];
  }
}

void vcycle(const Hierarchy& h, int lvl, std::span<const double> b,
            std::span<double> x) {
  const Level& level = h.levels[lvl];
  if (lvl == h.num_levels() - 1 || level.is_coarsest()) {
    dense_solve(level.A, b, x);
    return;
  }
  jacobi(level.A, b, x);

  // Restrict the residual.
  const int n = level.n();
  std::vector<double> r(n);
  level.A.spmv(x, r);
  for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const int nc = level.P.cols();
  std::vector<double> rc(nc), xc(nc, 0.0);
  level.R.spmv(r, rc);

  vcycle(h, lvl + 1, rc, xc);

  // Prolongate and correct.
  std::vector<double> corr(n);
  level.P.spmv(xc, corr);
  for (int i = 0; i < n; ++i) x[i] += corr[i];

  jacobi(level.A, b, x);
}

double residual_norm(const sparse::Csr& A, std::span<const double> b,
                     std::span<const double> x) {
  std::vector<double> r(A.rows());
  A.spmv(x, r);
  double acc = 0;
  for (int i = 0; i < A.rows(); ++i) {
    const double d = b[i] - r[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

namespace {
double norm2(std::span<const double> v) {
  double acc = 0;
  for (double x : v) acc += x * x;
  return std::sqrt(acc);
}
double dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}
}  // namespace

SolveResult pcg(const sparse::Csr& A, std::span<const double> b,
                std::span<double> x, const Precond& M, double rel_tol,
                int max_iter) {
  const int n = A.rows();
  std::vector<double> r(n), z(n), p(n), ap(n);
  A.spmv(x, r);
  for (int i = 0; i < n; ++i) r[i] = b[i] - r[i];
  const double bnorm = std::max(norm2(b), 1e-300);

  SolveResult res;
  M(r, z);
  p.assign(z.begin(), z.end());
  double rz = dot(r, z);
  for (int it = 0; it < max_iter; ++it) {
    res.final_residual = norm2(r) / bnorm;
    if (res.final_residual < rel_tol) {
      res.converged = true;
      return res;
    }
    A.spmv(p, ap);
    const double alpha = rz / dot(p, ap);
    for (int i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    M(r, z);
    const double rz_new = dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    for (int i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    ++res.iterations;
  }
  res.final_residual = norm2(r) / bnorm;
  res.converged = res.final_residual < rel_tol;
  return res;
}

SolveResult amg_solve(const Hierarchy& h, std::span<const double> b,
                      std::span<double> x, double rel_tol, int max_iter) {
  const sparse::Csr& A = h.levels.front().A;
  const double bnorm = std::max(norm2(b), 1e-300);
  SolveResult res;
  for (int it = 0; it < max_iter; ++it) {
    res.final_residual = residual_norm(A, b, x) / bnorm;
    if (res.final_residual < rel_tol) {
      res.converged = true;
      return res;
    }
    vcycle(h, 0, b, x);
    ++res.iterations;
  }
  res.final_residual = residual_norm(A, b, x) / bnorm;
  res.converged = res.final_residual < rel_tol;
  return res;
}

SolveResult amg_pcg(const Hierarchy& h, std::span<const double> b,
                    std::span<double> x, double rel_tol, int max_iter) {
  Precond M = [&](std::span<const double> r, std::span<double> z) {
    std::fill(z.begin(), z.end(), 0.0);
    vcycle(h, 0, r, z);
  };
  return pcg(h.levels.front().A, b, x, M, rel_tol, max_iter);
}

}  // namespace amg
