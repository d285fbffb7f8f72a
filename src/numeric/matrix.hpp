// Dense real matrix: the workspace of the dense LU (numeric/lu.hpp),
// which factors a densified MNA system when sparse analysis rejects it
// (see spice::SolverContext).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace dot::numeric {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool square() const { return rows_ == cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  void fill(double value);

  /// y = A * x
  std::vector<double> multiply(const std::vector<double>& x) const;

  Matrix transpose() const;

  /// max_ij |a_ij|
  double max_abs() const;

  std::string str(int decimals = 4) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Vector helpers shared by the solvers.
double norm_inf(const std::vector<double>& v);
double norm_2(const std::vector<double>& v);
/// out = a - b (sizes must match).
std::vector<double> subtract(const std::vector<double>& a,
                             const std::vector<double>& b);

}  // namespace dot::numeric
