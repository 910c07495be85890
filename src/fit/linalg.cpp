#include "fit/linalg.hpp"

#include <cmath>
#include <stdexcept>

namespace archline::fit {

Mat::Mat(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

namespace {

// normal_equations for n = 2, 3 and 4, the sizes the fits solve, with one
// named scalar per entry: the compiler keeps them all in registers
// across the row loop, which it does not do for an array of them.

void normal_equations_2(const Mat& a, std::span<const double> y, Mat& g,
                        std::span<double> h) {
  double g00 = 0.0, g01 = 0.0, g11 = 0.0;
  double h0 = 0.0, h1 = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double a0 = a(r, 0), a1 = a(r, 1), yr = y[r];
    g00 += a0 * a0;
    g01 += a0 * a1;
    g11 += a1 * a1;
    h0 += a0 * yr;
    h1 += a1 * yr;
  }
  g(0, 0) = g00;
  g(0, 1) = g(1, 0) = g01;
  g(1, 1) = g11;
  h[0] = h0;
  h[1] = h1;
}

void normal_equations_3(const Mat& a, std::span<const double> y, Mat& g,
                        std::span<double> h) {
  double g00 = 0.0, g01 = 0.0, g02 = 0.0, g11 = 0.0, g12 = 0.0, g22 = 0.0;
  double h0 = 0.0, h1 = 0.0, h2 = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double a0 = a(r, 0), a1 = a(r, 1), a2 = a(r, 2), yr = y[r];
    g00 += a0 * a0;
    g01 += a0 * a1;
    g02 += a0 * a2;
    g11 += a1 * a1;
    g12 += a1 * a2;
    g22 += a2 * a2;
    h0 += a0 * yr;
    h1 += a1 * yr;
    h2 += a2 * yr;
  }
  g(0, 0) = g00;
  g(0, 1) = g(1, 0) = g01;
  g(0, 2) = g(2, 0) = g02;
  g(1, 1) = g11;
  g(1, 2) = g(2, 1) = g12;
  g(2, 2) = g22;
  h[0] = h0;
  h[1] = h1;
  h[2] = h2;
}

void normal_equations_4(const Mat& a, std::span<const double> y, Mat& g,
                        std::span<double> h) {
  double g00 = 0.0, g01 = 0.0, g02 = 0.0, g03 = 0.0, g11 = 0.0, g12 = 0.0,
         g13 = 0.0, g22 = 0.0, g23 = 0.0, g33 = 0.0;
  double h0 = 0.0, h1 = 0.0, h2 = 0.0, h3 = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double a0 = a(r, 0), a1 = a(r, 1), a2 = a(r, 2), a3 = a(r, 3),
                 yr = y[r];
    g00 += a0 * a0;
    g01 += a0 * a1;
    g02 += a0 * a2;
    g03 += a0 * a3;
    g11 += a1 * a1;
    g12 += a1 * a2;
    g13 += a1 * a3;
    g22 += a2 * a2;
    g23 += a2 * a3;
    g33 += a3 * a3;
    h0 += a0 * yr;
    h1 += a1 * yr;
    h2 += a2 * yr;
    h3 += a3 * yr;
  }
  g(0, 0) = g00;
  g(0, 1) = g(1, 0) = g01;
  g(0, 2) = g(2, 0) = g02;
  g(0, 3) = g(3, 0) = g03;
  g(1, 1) = g11;
  g(1, 2) = g(2, 1) = g12;
  g(1, 3) = g(3, 1) = g13;
  g(2, 2) = g22;
  g(2, 3) = g(3, 2) = g23;
  g(3, 3) = g33;
  h[0] = h0;
  h[1] = h1;
  h[2] = h2;
  h[3] = h3;
}

}  // namespace

void normal_equations(const Mat& a, std::span<const double> y, Mat& ata,
                      std::span<double> aty) {
  const std::size_t n = a.cols();
  if (y.size() != a.rows() || ata.rows() != n || ata.cols() != n ||
      aty.size() != n)
    throw std::invalid_argument("normal_equations: dim mismatch");
  switch (n) {
    case 2: return normal_equations_2(a, y, ata, aty);
    case 3: return normal_equations_3(a, y, ata, aty);
    case 4: return normal_equations_4(a, y, ata, aty);
    default: break;
  }
  for (std::size_t i = 0; i < n; ++i) {
    aty[i] = 0.0;
    for (std::size_t j = i; j < n; ++j) ata(i, j) = 0.0;
  }
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i; j < n; ++j) ata(i, j) += a(r, i) * a(r, j);
      aty[i] += a(r, i) * y[r];
    }
  }
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) ata(i, j) = ata(j, i);
}

bool try_cholesky_solve(const Mat& s, std::span<const double> b, Mat& factor,
                        std::span<double> x) {
  const std::size_t n = s.rows();
  // Lower-triangular factor L with S = L L^T.
  Mat& l = factor;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double acc = s(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l(i, k) * l(j, k);
      if (i == j) {
        if (!(acc > 0.0)) return false;
        l(i, j) = std::sqrt(acc);
      } else {
        l(i, j) = acc / l(j, j);
      }
    }
  }
  // Forward substitution L z = b, with z in x.
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t k = 0; k < i; ++k) acc -= l(i, k) * x[k];
    x[i] = acc / l(i, i);
  }
  // Back substitution L^T x = z, in place: x[i] reads z[i] before it is
  // overwritten, and only the x[k], k > i, already solved.
  for (std::size_t ii = n; ii > 0; --ii) {
    const std::size_t i = ii - 1;
    double acc = x[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= l(k, i) * x[k];
    x[i] = acc / l(i, i);
  }
  return true;
}

std::vector<double> cholesky_solve(const Mat& s, std::span<const double> b) {
  const std::size_t n = s.rows();
  if (s.cols() != n || b.size() != n)
    throw std::invalid_argument("cholesky_solve: dim mismatch");
  Mat factor(n, n);
  std::vector<double> x(n);
  if (!try_cholesky_solve(s, b, factor, x))
    throw std::runtime_error("cholesky_solve: not positive definite");
  return x;
}

double norm2(std::span<const double> x) noexcept {
  double acc = 0.0;
  for (const double v : x) acc += v * v;
  return acc;
}

}  // namespace archline::fit
