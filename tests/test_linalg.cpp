// Tests for the small dense linear algebra kernel under fit/.

#include <gtest/gtest.h>

#include <stdexcept>

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

TEST(Gram, SymmetricPositive) {
  ft::Mat a(3, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 0.0; a(1, 1) = 1.0;
  a(2, 0) = 1.0; a(2, 1) = 0.0;
  const ft::Mat g = ft::gram(a);
  EXPECT_DOUBLE_EQ(g(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(g(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 5.0);
}

TEST(MatvecTransposed, KnownProduct) {
  ft::Mat a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 3.0; a(1, 1) = 4.0;
  const std::vector<double> y = {1.0, 1.0};
  const auto x = ft::matvec_transposed(a, y);
  EXPECT_DOUBLE_EQ(x[0], 4.0);
  EXPECT_DOUBLE_EQ(x[1], 6.0);
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
