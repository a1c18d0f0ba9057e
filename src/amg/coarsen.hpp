#pragma once
/// \file coarsen.hpp
/// \brief Coarse/fine splitting (Ruge-Stueben).

#include <vector>

#include "sparse/csr.hpp"

namespace amg {

/// CF marks.
enum class CF : signed char { fine = -1, coarse = 1 };

/// Ruge-Stueben first-pass splitting over the strength matrix S.
/// Points with no strong connections in either direction become C points
/// (kept exact on the coarse grid).
std::vector<CF> coarsen_rs(const sparse::Csr& S);

/// Indices of C points, ascending ("canonical" coarse numbering).
std::vector<int> coarse_points(const std::vector<CF>& cf);

}  // namespace amg
