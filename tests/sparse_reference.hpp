// Reference sparse refactorization for the solver tests: the plain
// left-looking Gilbert-Peierls loop over a SparseSymbolic's recorded
// structure (reach, pivot sequence, L and U patterns), with its own
// dense scratch column and separate L/U/pivot arrays. It shares only
// the analysis with numeric::SparseFactorsT, so the flat refactor
// schedule can be checked against it bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "numeric/sparse.hpp"

namespace dot::testing_support {

template <typename Scalar>
struct ReferenceLu {
  std::vector<Scalar> l_vals, u_vals, udiag;
  double min_abs_pivot = 0.0;
  /// Factor column whose pivot collapsed, or -1 when the refactor held.
  std::int32_t failed_column = -1;

  /// Left-looking refactor of `values` (CSR, matching s.pattern) with
  /// the recorded pivots: per column, clear the reach, scatter A's
  /// column, eliminate in topological order (skipping zero
  /// multipliers), check the pivot, then copy U out and scale L.
  bool refactor(const numeric::SparseSymbolic& s,
                const std::vector<Scalar>& values, double pivot_epsilon) {
    const std::int32_t n = static_cast<std::int32_t>(s.pattern.n);
    l_vals.assign(s.l_rows.size(), Scalar(0));
    u_vals.assign(s.u_rows.size(), Scalar(0));
    udiag.assign(static_cast<std::size_t>(n), Scalar(0));
    std::vector<Scalar> x(static_cast<std::size_t>(n), Scalar(0));
    min_abs_pivot = n > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    failed_column = -1;
    for (std::int32_t j = 0; j < n; ++j) {
      const std::int32_t col = s.qperm[j];
      for (std::int32_t t = s.topo_ptr[j]; t < s.topo_ptr[j + 1]; ++t)
        x[s.topo_rows[t]] = Scalar(0);
      for (std::int32_t idx = s.csc_ptr[col]; idx < s.csc_ptr[col + 1]; ++idx)
        x[s.csc_rows[idx]] = values[s.csc_csr[idx]];
      for (std::int32_t t = s.topo_ptr[j]; t < s.topo_ptr[j + 1]; ++t) {
        const std::int32_t r = s.topo_rows[t];
        const std::int32_t k = s.pinv[r];
        if (k >= j) continue;
        const Scalar xr = x[r];
        if (xr == Scalar(0)) continue;
        for (std::int32_t li = s.l_ptr[k]; li < s.l_ptr[k + 1]; ++li)
          x[s.l_rows[li]] -= l_vals[li] * xr;
      }
      const Scalar piv = x[s.pivrow[j]];
      const double mag = std::abs(piv);
      if (mag <= pivot_epsilon) {
        min_abs_pivot = mag;
        failed_column = j;
        return false;
      }
      min_abs_pivot = std::min(min_abs_pivot, mag);
      udiag[j] = piv;
      const Scalar inv_piv = Scalar(1) / piv;
      for (std::int32_t ui = s.u_ptr[j]; ui < s.u_ptr[j + 1]; ++ui)
        u_vals[ui] = x[s.u_rows[ui]];
      for (std::int32_t li = s.l_ptr[j]; li < s.l_ptr[j + 1]; ++li)
        l_vals[li] = x[s.l_rows[li]] * inv_piv;
    }
    return true;
  }

  /// Forward and back substitution with the factors above.
  std::vector<Scalar> solve(const numeric::SparseSymbolic& s,
                            const std::vector<Scalar>& b) const {
    const std::int32_t n = static_cast<std::int32_t>(s.pattern.n);
    std::vector<Scalar> x = b;
    std::vector<Scalar> z(static_cast<std::size_t>(n));
    for (std::int32_t j = 0; j < n; ++j) {
      const Scalar xj = x[s.pivrow[j]];
      if (xj == Scalar(0)) continue;
      for (std::int32_t li = s.l_ptr[j]; li < s.l_ptr[j + 1]; ++li)
        x[s.l_rows[li]] -= l_vals[li] * xj;
    }
    for (std::int32_t j = n - 1; j >= 0; --j) {
      const Scalar zj = x[s.pivrow[j]] / udiag[j];
      z[j] = zj;
      if (zj == Scalar(0)) continue;
      for (std::int32_t ui = s.u_ptr[j]; ui < s.u_ptr[j + 1]; ++ui)
        x[s.pivrow[s.u_pos[ui]]] -= u_vals[ui] * zj;
    }
    for (std::int32_t j = 0; j < n; ++j) x[s.qperm[j]] = z[j];
    return x;
  }
};

}  // namespace dot::testing_support
