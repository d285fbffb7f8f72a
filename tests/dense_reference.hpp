// Dense reference for the sparse-solver tests: Newton on the DC system,
// each step assembled by assemble_mna, densified and solved by
// numeric::DenseLu with full partial pivoting -- independent of the
// sparse LU under test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "numeric/lu.hpp"
#include "numeric/matrix.hpp"
#include "spice/mna.hpp"
#include "spice/netlist.hpp"

namespace dot::testing_support {

/// Undamped dense Newton on the DC system from `x`, until the largest
/// update is below `tol` or `max_steps` are spent. Start it at (or
/// near) a solution: it has none of dc_operating_point's continuation.
inline std::vector<double> dense_dc_newton(const spice::Netlist& netlist,
                                           const spice::MnaMap& map,
                                           std::vector<double> x,
                                           int max_steps = 50,
                                           double tol = 1e-13) {
  const std::size_t n = map.size();
  const std::vector<double> no_prev(n, 0.0);
  numeric::SparseAssembler assembler;
  std::vector<double> b;
  for (int step = 0; step < max_steps; ++step) {
    spice::assemble_mna(netlist, map, x, no_prev, spice::StampOptions{},
                        assembler, b);
    numeric::Matrix a(n, n);
    const numeric::CsrPattern& pattern = assembler.pattern();
    for (std::size_t r = 0; r < n; ++r)
      for (auto idx = pattern.row_ptr[r]; idx < pattern.row_ptr[r + 1]; ++idx)
        a(r, static_cast<std::size_t>(pattern.cols[idx])) =
            assembler.values()[static_cast<std::size_t>(idx)];
    const std::vector<double> next = numeric::solve_linear(a, b);
    double max_dx = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      max_dx = std::max(max_dx, std::fabs(next[i] - x[i]));
    x = next;
    if (max_dx < tol) break;
  }
  return x;
}

}  // namespace dot::testing_support
