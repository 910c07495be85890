// Tests for the small dense linear algebra kernel under fit/.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include "fit/linalg.hpp"

namespace {

namespace ft = archline::fit;

TEST(Mat, ConstructionAndIndexing) {
  ft::Mat m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
}

TEST(NormalEquations, SymmetricPositive) {
  ft::Mat a(3, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 0.0; a(1, 1) = 1.0;
  a(2, 0) = 1.0; a(2, 1) = 0.0;
  ft::Mat g(2, 2);
  std::vector<double> h(2);
  ft::normal_equations(a, std::vector<double>(3, 0.0), g, h);
  EXPECT_DOUBLE_EQ(g(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 5.0);
}

TEST(NormalEquations, KnownProduct) {
  ft::Mat a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 3.0; a(1, 1) = 4.0;
  const std::vector<double> y = {1.0, 1.0};
  ft::Mat g(2, 2);
  std::vector<double> x(2);
  ft::normal_equations(a, y, g, x);
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 6.0);
}

// The contract: every entry of A^T A and A^T y is the serial sum over the
// rows, from 0.0, in row order. Random m x n matrices with n = 1..6 (the
// 2/3/4 specialisations and the generic path), entries of both signs
// spread over 1e-12..1e12 so that a reordered sum rounds differently.
TEST(NormalEquations, EqualsRowOrderSerialSumsBitForBit) {
  std::mt19937_64 gen(2014);
  std::uniform_real_distribution<double> exponent(-12.0, 12.0);
  std::uniform_int_distribution<int> rows(1, 80);
  const auto entry = [&] {
    const double v = std::pow(10.0, exponent(gen));
    return gen() & 1 ? -v : v;
  };
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (std::size_t n = 1; n <= 6; ++n) {
    for (int trial = 0; trial < 200; ++trial) {
      const auto m = static_cast<std::size_t>(rows(gen));
      ft::Mat a(m, n);
      std::vector<double> y(m);
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c) a(r, c) = entry();
        y[r] = entry();
      }
      // Stale contents, so an entry that is not reset shows.
      ft::Mat g(n, n, 7.0);
      std::vector<double> h(n, 7.0);
      ft::normal_equations(a, y, g, h);
      for (std::size_t i = 0; i < n; ++i) {
        double want_h = 0.0;
        for (std::size_t r = 0; r < m; ++r) want_h += a(r, i) * y[r];
        ASSERT_EQ(bits(h[i]), bits(want_h)) << n << " " << trial << " " << i;
        for (std::size_t j = 0; j < n; ++j) {
          double want_g = 0.0;
          for (std::size_t r = 0; r < m; ++r)
            want_g += a(r, std::min(i, j)) * a(r, std::max(i, j));
          ASSERT_EQ(bits(g(i, j)), bits(want_g))
              << n << " " << trial << " " << i << "," << j;
        }
      }
    }
  }
}

TEST(NormalEquations, DimMismatchThrows) {
  const ft::Mat a(3, 2);
  ft::Mat g(2, 2);
  std::vector<double> h(2);
  EXPECT_THROW(ft::normal_equations(a, std::vector<double>(2), g, h),
               std::invalid_argument);
  ft::Mat wrong(3, 3);
  EXPECT_THROW(ft::normal_equations(a, std::vector<double>(3), wrong, h),
               std::invalid_argument);
  std::vector<double> short_h(1);
  EXPECT_THROW(ft::normal_equations(a, std::vector<double>(3), g, short_h),
               std::invalid_argument);
}

TEST(CholeskySolve, Identity) {
  ft::Mat eye(3, 3);
  for (std::size_t i = 0; i < 3; ++i) eye(i, i) = 1.0;
  const auto x = ft::cholesky_solve(eye, std::vector<double>{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(CholeskySolve, KnownSpdSystem) {
  // S = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  ft::Mat s(2, 2);
  s(0, 0) = 4.0; s(0, 1) = 2.0;
  s(1, 0) = 2.0; s(1, 1) = 3.0;
  const auto x = ft::cholesky_solve(s, std::vector<double>{10.0, 9.0});
  EXPECT_NEAR(x[0], 1.5, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(CholeskySolve, ResidualIsTiny) {
  // Well-conditioned SPD system: diagonally dominant Gram matrix.
  ft::Mat s(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j)
      s(i, j) = (i == j) ? 10.0 + static_cast<double>(i)
                         : 1.0 / (1.0 + static_cast<double>(i + j));
  const std::vector<double> b = {1.0, -2.0, 0.5};
  const auto x = ft::cholesky_solve(s, b);
  for (std::size_t i = 0; i < 3; ++i) {
    double sx = 0.0;
    for (std::size_t j = 0; j < 3; ++j) sx += s(i, j) * x[j];
    EXPECT_NEAR(sx, b[i], 1e-12);
  }
}

TEST(CholeskySolve, NotPositiveDefiniteThrows) {
  ft::Mat s(2, 2);
  s(0, 0) = 1.0; s(0, 1) = 2.0;
  s(1, 0) = 2.0; s(1, 1) = 1.0;  // eigenvalues 3, -1
  EXPECT_THROW((void)ft::cholesky_solve(s, std::vector<double>{1.0, 1.0}),
               std::runtime_error);
}

TEST(TryCholeskySolve, ReusedBuffersGiveCholeskySolvesBits) {
  // One factor and solution buffer across systems of one size, as
  // Levenberg-Marquardt reuses them across its damped attempts.
  ft::Mat factor(3, 3);
  std::vector<double> x(3);
  for (int k = 0; k < 4; ++k) {
    ft::Mat s(3, 3);
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t j = 0; j < 3; ++j)
        s(i, j) = (i == j) ? 5.0 + k + static_cast<double>(i)
                           : 1.0 / (1.0 + k + static_cast<double>(i + j));
    const std::vector<double> b = {1.0 + k, -2.0, 0.5 * k};
    ASSERT_TRUE(ft::try_cholesky_solve(s, b, factor, x));
    const auto want = ft::cholesky_solve(s, b);
    for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(x[i], want[i]) << k;
  }
  ft::Mat indefinite(2, 2);
  indefinite(0, 0) = 1.0; indefinite(0, 1) = 2.0;
  indefinite(1, 0) = 2.0; indefinite(1, 1) = 1.0;
  ft::Mat f2(2, 2);
  std::vector<double> x2(2);
  EXPECT_FALSE(ft::try_cholesky_solve(indefinite, std::vector<double>{1.0, 1.0},
                                      f2, x2));
}

TEST(CholeskySolve, DimMismatchThrows) {
  EXPECT_THROW((void)ft::cholesky_solve(ft::Mat(2, 3),
                                        std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Norms, KnownValues) {
  const std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(ft::norm2(x), 25.0);
}

}  // namespace
