// Tests for stats::Rng (PCG32) — determinism, range, distribution moments.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace {

using archline::stats::Rng;

TEST(Rng, SameSeedSameStream) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, DifferentStreamsDiverge) {
  Rng a(7, 1);
  Rng b(7, 2);
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(1234);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.uniform();
  EXPECT_NEAR(archline::stats::mean(xs), 0.5, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, BelowZeroAndOneAreZero) {
  Rng rng(17);
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::array<int, 5> counts{};
  for (int i = 0; i < 5000; ++i) ++counts[rng.below(5)];
  for (const int c : counts) EXPECT_GT(c, 800);  // fair-ish
}

TEST(Rng, NormalMoments) {
  Rng rng(2024);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal();
  EXPECT_NEAR(archline::stats::mean(xs), 0.0, 0.02);
  EXPECT_NEAR(archline::stats::stddev(xs), 1.0, 0.02);
}

TEST(Rng, NormalShiftScale) {
  Rng rng(2025);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal(10.0, 2.0);
  EXPECT_NEAR(archline::stats::mean(xs), 10.0, 0.05);
  EXPECT_NEAR(archline::stats::stddev(xs), 2.0, 0.05);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(Rng, LognormalMedianNearExpMu) {
  Rng rng(31);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.lognormal(1.0, 0.7);
  EXPECT_NEAR(archline::stats::median(xs), std::exp(1.0), 0.08);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(77);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.exponential(4.0);
  EXPECT_NEAR(archline::stats::mean(xs), 0.25, 0.01);
  for (const double x : xs) EXPECT_GE(x, 0.0);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == 0xFFFFFFFFu);
  Rng rng(1);
  (void)rng();
}

TEST(RngAdvance, EqualsThatManyDraws) {
  for (const std::uint64_t n : {0u, 1u, 2u, 3u, 64u, 1000u, 65537u}) {
    SCOPED_TRACE(n);
    Rng jumped(314, 15);
    Rng stepped(314, 15);
    jumped.advance(n);
    for (std::uint64_t i = 0; i < n; ++i) (void)stepped();
    for (int i = 0; i < 100; ++i) ASSERT_EQ(jumped(), stepped());
  }
}

TEST(RngAdvance, Composes) {
  for (const auto& [a, b] : {std::pair<std::uint64_t, std::uint64_t>{0, 5},
                             {3, 64},
                             {1000, 65537},
                             {1ull << 40, (1ull << 40) + 7}}) {
    Rng split(99);
    Rng whole(99);
    split.advance(a);
    split.advance(b);
    whole.advance(a + b);
    for (int i = 0; i < 100; ++i) ASSERT_EQ(split(), whole());
  }
}

TEST(RngAdvance, KeepsStreamAndCachedNormal) {
  // Two streams from one state diverge after the same jump: the jump
  // used each generator's own increment and left it in place.
  Rng a(8, 1);
  Rng b(8, 2);
  Rng a_steps = a;
  Rng b_steps = b;
  a.advance(77);
  b.advance(77);
  for (int i = 0; i < 77; ++i) {
    (void)a_steps();
    (void)b_steps();
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(a(), a_steps());
    ASSERT_EQ(b(), b_steps());
  }
  // normal() draws a pair and caches the second; a jump keeps it.
  Rng r(21);
  (void)r.normal();
  Rng kept = r;
  r.advance(5);
  EXPECT_EQ(r.normal(), kept.normal());
  for (int i = 0; i < 5; ++i) (void)kept();
  EXPECT_EQ(r.normal(), kept.normal());
}

TEST(Splitmix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(archline::stats::splitmix64(s1), archline::stats::splitmix64(s2));
}

}  // namespace
