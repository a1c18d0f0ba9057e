#include "amg/coarsen.hpp"

#include <algorithm>

namespace amg {

namespace {

constexpr signed char kUnassigned = 0;

}  // namespace

std::vector<CF> coarsen_rs(const sparse::Csr& S) {
  const int n = S.rows();
  const sparse::Csr St = S.transpose();  // St row i = points i influences
  std::vector<signed char> mark(n, kUnassigned);

  // Measure = number of points this point strongly influences.
  std::vector<int> lambda(n, 0);
  for (int i = 0; i < n; ++i)
    lambda[i] = static_cast<int>(St.row_cols(i).size());

  // Bucket "priority queue" keyed by lambda, supporting increase/decrease.
  const int max_lambda = n + 1;
  std::vector<std::vector<int>> bucket(max_lambda + 2);
  std::vector<int> pos(n), key(n);
  for (int i = 0; i < n; ++i) {
    key[i] = lambda[i];
    pos[i] = static_cast<int>(bucket[key[i]].size());
    bucket[key[i]].push_back(i);
  }
  auto bucket_remove = [&](int i) {
    auto& b = bucket[key[i]];
    b[pos[i]] = b.back();
    pos[b[pos[i]]] = pos[i];
    b.pop_back();
  };
  int cur = max_lambda + 1;
  auto bucket_update = [&](int i, int new_key) {
    bucket_remove(i);
    key[i] = std::min(new_key, max_lambda + 1);
    pos[i] = static_cast<int>(bucket[key[i]].size());
    bucket[key[i]].push_back(i);
    cur = std::max(cur, key[i]);  // scan pointer may need to move back up
  };

  int assigned = 0;
  while (assigned < n) {
    while (cur > 0 && bucket[cur].empty()) --cur;
    if (cur == 0) {
      // Only measure-zero points remain: no strong transpose connections.
      // Make them C points so they stay exact on the coarse grid.
      for (int i = 0; i < n; ++i)
        if (mark[i] == kUnassigned) {
          mark[i] = static_cast<signed char>(CF::coarse);
          ++assigned;
        }
      break;
    }
    const int c = bucket[cur].back();
    bucket[cur].pop_back();
    mark[c] = static_cast<signed char>(CF::coarse);
    ++assigned;

    // Every unassigned point that strongly depends on c becomes F.
    for (int j : St.row_cols(c)) {
      if (mark[j] != kUnassigned) continue;
      mark[j] = static_cast<signed char>(CF::fine);
      ++assigned;
      bucket_remove(j);
      // New F point: boost the measure of the points it depends on, making
      // them attractive C candidates (classical RS heuristic).
      for (int k : S.row_cols(j))
        if (mark[k] == kUnassigned) bucket_update(k, key[k] + 1);
    }
  }

  std::vector<CF> cf(n);
  for (int i = 0; i < n; ++i)
    cf[i] = mark[i] == static_cast<signed char>(CF::coarse) ? CF::coarse
                                                            : CF::fine;
  return cf;
}

std::vector<int> coarse_points(const std::vector<CF>& cf) {
  std::vector<int> c;
  for (std::size_t i = 0; i < cf.size(); ++i)
    if (cf[i] == CF::coarse) c.push_back(static_cast<int>(i));
  return c;
}

}  // namespace amg
