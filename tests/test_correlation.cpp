// Tests for the Pearson correlation.

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "stats/correlation.hpp"
#include "stats/rng.hpp"

namespace {

namespace st = archline::stats;

TEST(Pearson, PerfectPositive) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 6.0};
  EXPECT_NEAR(st::pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {6.0, 4.0, 2.0};
  EXPECT_NEAR(st::pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, KnownValue) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> y = {2.0, 1.0, 4.0, 3.0, 5.0};
  EXPECT_NEAR(st::pearson(x, y), 0.8, 1e-12);
}

TEST(Pearson, InvariantToAffineTransform) {
  const std::vector<double> x = {1.0, 5.0, 2.0, 8.0};
  const std::vector<double> y = {0.5, 3.0, 1.0, 9.0};
  std::vector<double> x2(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) x2[i] = 100.0 * x[i] - 7.0;
  EXPECT_NEAR(st::pearson(x, y), st::pearson(x2, y), 1e-12);
}

TEST(Pearson, LengthMismatchThrows) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0};
  EXPECT_THROW((void)st::pearson(x, y), std::invalid_argument);
}

TEST(Pearson, ConstantInputThrows) {
  const std::vector<double> x = {1.0, 1.0, 1.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  EXPECT_THROW((void)st::pearson(x, y), std::invalid_argument);
}

TEST(Pearson, TooFewPointsThrows) {
  const std::vector<double> x = {1.0};
  EXPECT_THROW((void)st::pearson(x, x), std::invalid_argument);
}

TEST(Pearson, NearZeroForIndependent) {
  st::Rng rng(21);
  std::vector<double> x(5000);
  std::vector<double> y(5000);
  for (double& v : x) v = rng.normal();
  for (double& v : y) v = rng.normal();
  EXPECT_NEAR(st::pearson(x, y), 0.0, 0.05);
}

}  // namespace
