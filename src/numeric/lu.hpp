// LU factorization with partial pivoting. Every MNA system goes through
// the sparse LU of numeric/sparse.hpp; this dense solver factors the
// densified system when sparse analysis rejects a matrix.
// The pivoting kernel itself lives in numeric/dense_lu.hpp, shared
// with the complex (AC) variant.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/dense_lu.hpp"
#include "numeric/matrix.hpp"

namespace dot::numeric {

/// Real dense LU with workspace reuse: assemble into matrix(), then
/// factor() in place.
using DenseLu = DenseLuT<Matrix, double>;

/// Factorization of a square matrix A as P*A = L*U. Throws
/// util::ConvergenceError (via solve()) when A is numerically singular.
class LuFactorization {
 public:
  /// Factors `a` (moved in). `singular()` reports whether a zero (or
  /// sub-epsilon) pivot was hit; solve() on a singular factorization
  /// throws.
  explicit LuFactorization(Matrix a, double pivot_epsilon = 1e-13)
      : impl_(std::move(a), pivot_epsilon) {}

  bool singular() const { return impl_.singular(); }
  std::size_t size() const { return impl_.size(); }

  /// Solves A x = b.
  std::vector<double> solve(const std::vector<double>& b) const {
    return impl_.solve(b);
  }

  /// Estimated reciprocal pivot growth; tiny values signal an
  /// ill-conditioned system (useful for fault-sim diagnostics).
  double min_abs_pivot() const { return impl_.min_abs_pivot(); }

 private:
  DenseLu impl_;
};

/// One-shot convenience: solves A x = b, throwing on singular A.
std::vector<double> solve_linear(const Matrix& a, const std::vector<double>& b);

}  // namespace dot::numeric
