// Tests for Levenberg-Marquardt nonlinear least squares.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "fit/levmar.hpp"

namespace {

namespace ft = archline::fit;

TEST(Levmar, LinearLeastSquaresExact) {
  // r_i = (a * t_i + b) - y_i with y from a=2, b=1: exact solution.
  const std::vector<double> ts = {0.0, 1.0, 2.0, 3.0};
  const auto residuals = [&ts](std::span<const double> x,
                                std::vector<double>& r) {
    r.clear();
    for (const double t : ts) r.push_back(x[0] * t + x[1] - (2.0 * t + 1.0));
  };
  const auto result =
      ft::levenberg_marquardt(residuals, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(result.x[0], 2.0, 1e-8);
  EXPECT_NEAR(result.x[1], 1.0, 1e-8);
  EXPECT_LT(result.rss, 1e-15);
}

TEST(Levmar, ExponentialDecayFit) {
  // y = A exp(-k t) with A = 5, k = 1.3.
  const std::vector<double> ts = {0.0, 0.5, 1.0, 1.5, 2.0, 3.0};
  const auto residuals = [&ts](std::span<const double> x,
                                std::vector<double>& r) {
    r.clear();
    for (const double t : ts)
      r.push_back(x[0] * std::exp(-x[1] * t) -
                  5.0 * std::exp(-1.3 * t));
  };
  const auto result =
      ft::levenberg_marquardt(residuals, std::vector<double>{1.0, 0.5});
  EXPECT_NEAR(result.x[0], 5.0, 1e-5);
  EXPECT_NEAR(result.x[1], 1.3, 1e-5);
}

TEST(Levmar, RosenbrockAsLeastSquares) {
  const auto residuals = [](std::span<const double> x,
                             std::vector<double>& r) {
    r = {1.0 - x[0], 10.0 * (x[1] - x[0] * x[0])};
  };
  const auto result =
      ft::levenberg_marquardt(residuals, std::vector<double>{-1.2, 1.0});
  EXPECT_NEAR(result.x[0], 1.0, 1e-6);
  EXPECT_NEAR(result.x[1], 1.0, 1e-6);
}

TEST(Levmar, NoisyDataStillCloseToTruth) {
  const std::vector<double> ts = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> noise = {0.01, -0.02, 0.015, -0.01, 0.02, -0.005};
  const auto residuals = [&](std::span<const double> x,
                             std::vector<double>& r) {
    r.clear();
    for (std::size_t i = 0; i < ts.size(); ++i)
      r.push_back(x[0] * ts[i] + x[1] - (3.0 * ts[i] + 2.0 + noise[i]));
  };
  const auto result =
      ft::levenberg_marquardt(residuals, std::vector<double>{0.0, 0.0});
  EXPECT_NEAR(result.x[0], 3.0, 0.05);
  EXPECT_NEAR(result.x[1], 2.0, 0.05);
  EXPECT_GT(result.rss, 0.0);  // noise leaves a floor
}

TEST(Levmar, ConvergesFromGoodSeedQuickly) {
  const auto residuals = [](std::span<const double> x,
                             std::vector<double>& r) { r = {x[0] - 4.0}; };
  const auto result =
      ft::levenberg_marquardt(residuals, std::vector<double>{4.0001});
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.iterations, 10);
}

TEST(Levmar, EmptyStartThrows) {
  const auto residuals = [](std::span<const double>,
                             std::vector<double>& r) { r = {0.0}; };
  EXPECT_THROW((void)ft::levenberg_marquardt(residuals,
                                             std::vector<double>{}),
               std::invalid_argument);
}

TEST(Levmar, EmptyResidualsThrow) {
  const auto residuals = [](std::span<const double>,
                             std::vector<double>& r) { r.clear(); };
  EXPECT_THROW((void)ft::levenberg_marquardt(residuals,
                                             std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(Levmar, OverparameterizedStillDescends) {
  // More parameters than residuals: damping keeps the solve well-posed.
  const auto residuals = [](std::span<const double> x,
                             std::vector<double>& r) {
    r = {x[0] + x[1] - 2.0};
  };
  const auto result = ft::levenberg_marquardt(
      residuals, std::vector<double>{10.0, -5.0});
  EXPECT_LT(result.rss, 1e-10);
}

TEST(Levmar, IterationBudgetRespected) {
  const auto residuals = [](std::span<const double> x,
                             std::vector<double>& r) {
    r = {std::sin(x[0]) + 2.0};  // no zero residual
  };
  ft::LevmarOptions opt;
  opt.max_iterations = 5;
  const auto result =
      ft::levenberg_marquardt(residuals, std::vector<double>{0.0}, opt);
  EXPECT_LE(result.iterations, 5);
}

}  // namespace
