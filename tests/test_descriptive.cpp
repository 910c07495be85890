// Tests for stats::descriptive — moments, quantiles, summaries.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/descriptive.hpp"

namespace {

namespace st = archline::stats;

TEST(Mean, Basic) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(st::mean(xs), 2.5);
}

TEST(Mean, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(st::mean(std::vector<double>{}), 0.0);
}

TEST(Variance, KnownValue) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Population variance is 4; sample (n-1) variance is 32/7.
  EXPECT_NEAR(st::variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Variance, SinglePointIsZero) {
  const std::vector<double> xs = {3.0};
  EXPECT_DOUBLE_EQ(st::variance(xs), 0.0);
}

TEST(Stddev, SqrtOfVariance) {
  const std::vector<double> xs = {1.0, 3.0};
  EXPECT_NEAR(st::stddev(xs), std::sqrt(2.0), 1e-12);
}

TEST(Quantile, MedianOddCount) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(st::median(xs), 3.0);
}

TEST(Quantile, MedianEvenCountInterpolates) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(st::median(xs), 2.5);
}

TEST(Quantile, Type7MatchesR) {
  // R: quantile(c(1,2,3,4,10), 0.25) == 2 ; 0.75 == 4.
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  EXPECT_DOUBLE_EQ(st::quantile(xs, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(st::quantile(xs, 0.75), 4.0);
}

TEST(Quantile, Extremes) {
  const std::vector<double> xs = {4.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(st::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(st::quantile(xs, 1.0), 9.0);
}

TEST(Quantile, UnsortedInputHandled) {
  const std::vector<double> xs = {9.0, 1.0, 5.0, 3.0, 7.0};
  EXPECT_DOUBLE_EQ(st::median(xs), 5.0);
}

TEST(Quantile, BadProbabilityThrows) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)st::quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW((void)st::quantile(xs, 1.1), std::invalid_argument);
}

TEST(Quantile, EmptyThrows) {
  EXPECT_THROW((void)st::quantile(std::vector<double>{}, 0.5),
               std::invalid_argument);
}

TEST(NearestRank, CeilingRankOfSortedSample) {
  const std::vector<int> xs = {10, 20, 30, 40};
  EXPECT_EQ(st::nearest_rank(xs, 0.0), 10);   // rank clamps up to 1
  EXPECT_EQ(st::nearest_rank(xs, 0.25), 10);  // ceil(1.0) = rank 1
  EXPECT_EQ(st::nearest_rank(xs, 0.26), 20);
  EXPECT_EQ(st::nearest_rank(xs, 0.50), 20);  // lower median, no interpolation
  EXPECT_EQ(st::nearest_rank(xs, 0.99), 40);
  EXPECT_EQ(st::nearest_rank(xs, 1.0), 40);
  EXPECT_EQ(st::nearest_rank(std::vector<double>{}, 0.5), 0.0);
}

TEST(Summarize, FiveNumbers) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  const st::FiveNumberSummary s = st::summarize(xs);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.q25, 2.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.q75, 4.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.iqr(), 2.0);
}

TEST(Summarize, OrderedInvariants) {
  const std::vector<double> xs = {0.3, -1.2, 4.5, 2.2, 0.0, 9.1, -3.3};
  const st::FiveNumberSummary s = st::summarize(xs);
  EXPECT_LE(s.min, s.q25);
  EXPECT_LE(s.q25, s.median);
  EXPECT_LE(s.median, s.q75);
  EXPECT_LE(s.q75, s.max);
}

}  // namespace
