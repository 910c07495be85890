#include "fit/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace archline::fit {

Mat::Mat(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Mat gram(const Mat& a) {
  Mat g(a.cols(), a.cols());
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = i; j < a.cols(); ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) acc += a(r, i) * a(r, j);
      g(i, j) = acc;
      g(j, i) = acc;
    }
  }
  return g;
}

std::vector<double> matvec_transposed(const Mat& a,
                                      std::span<const double> y) {
  if (y.size() != a.rows())
    throw std::invalid_argument("matvec_transposed: dim mismatch");
  std::vector<double> x(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) x[c] += a(r, c) * y[r];
  return x;
}

std::vector<double> cholesky_solve(const Mat& s, std::span<const double> b) {
  const std::size_t n = s.rows();
  if (s.cols() != n || b.size() != n)
    throw std::invalid_argument("cholesky_solve: dim mismatch");

  // Lower-triangular factor L with S = L L^T.
  Mat l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = s(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        if (!(acc > 0.0))
          throw std::runtime_error("cholesky_solve: not positive definite");
        l(i, j) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  // Forward substitution L z = b.
  std::vector<double> z(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * z[k];
    z[i] = acc / l(i, i);
  }
  // Back substitution L^T x = z.
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = z[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l(k, i) * x[k];
    x[i] = acc / l(i, i);
  }
  return x;
}

double norm2(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (const double v : x) acc += v * v;
  return acc;
}

}  // namespace archline::fit
