// Tests for powermon::PowerTrace and Capture.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "powermon/trace.hpp"
#include "stats/rng.hpp"

namespace {

namespace pm = archline::powermon;

TEST(PowerTrace, EmptyTraceIsZero) {
  const pm::PowerTrace t;
  EXPECT_TRUE(t.empty());
  EXPECT_DOUBLE_EQ(t.value(1.0), 0.0);
  EXPECT_DOUBLE_EQ(t.total_energy(), 0.0);
}

TEST(PowerTrace, ConstantSegment) {
  pm::PowerTrace t;
  t.add_constant(2.0, 50.0);
  EXPECT_DOUBLE_EQ(t.value(1.0), 50.0);
  EXPECT_DOUBLE_EQ(t.total_energy(), 100.0);
  EXPECT_DOUBLE_EQ(t.duration(), 2.0);
}

TEST(PowerTrace, LinearInterpolation) {
  pm::PowerTrace t;
  t.add_point(0.0, 0.0);
  t.add_point(10.0, 100.0);
  EXPECT_DOUBLE_EQ(t.value(5.0), 50.0);
  EXPECT_DOUBLE_EQ(t.value(2.5), 25.0);
}

TEST(PowerTrace, ConstantExtrapolationOutsideSpan) {
  pm::PowerTrace t;
  t.add_point(1.0, 10.0);
  t.add_point(2.0, 20.0);
  EXPECT_DOUBLE_EQ(t.value(0.0), 10.0);
  EXPECT_DOUBLE_EQ(t.value(5.0), 20.0);
}

TEST(PowerTrace, RampIntegralIsExact) {
  pm::PowerTrace t;
  t.add_point(0.0, 0.0);
  t.add_ramp(4.0, 100.0);  // triangle: area = 200
  EXPECT_DOUBLE_EQ(t.total_energy(), 200.0);
}

TEST(PowerTrace, PartialIntegral) {
  pm::PowerTrace t;
  t.add_constant(10.0, 10.0);
  EXPECT_DOUBLE_EQ(t.integral(2.0, 5.0), 30.0);
}

TEST(PowerTrace, IntegralAcrossSegments) {
  pm::PowerTrace t;
  t.add_point(0.0, 0.0);
  t.add_point(1.0, 10.0);   // triangle area 5
  t.add_point(3.0, 10.0);   // rectangle area 20
  EXPECT_DOUBLE_EQ(t.total_energy(), 25.0);
  // value(0.5) = 5; 0.5..1 trapezoid = (5+10)/2 * 0.5 = 3.75; 1..2 = 10.
  EXPECT_DOUBLE_EQ(t.integral(0.5, 2.0), 13.75);
}

TEST(PowerTrace, EmptyIntervalIntegralIsZero) {
  pm::PowerTrace t;
  t.add_constant(1.0, 5.0);
  EXPECT_DOUBLE_EQ(t.integral(0.5, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(t.integral(0.7, 0.3), 0.0);
}

TEST(PowerTrace, RejectsBackwardsTime) {
  pm::PowerTrace t;
  t.add_point(1.0, 5.0);
  EXPECT_THROW(t.add_point(0.5, 5.0), std::invalid_argument);
}

TEST(PowerTrace, RejectsNegativePower) {
  pm::PowerTrace t;
  EXPECT_THROW(t.add_point(0.0, -1.0), std::invalid_argument);
}

TEST(PowerTrace, RejectsNonFinite) {
  pm::PowerTrace t;
  EXPECT_THROW(t.add_point(0.0, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(PowerTrace, RampNeedsStartingPoint) {
  pm::PowerTrace t;
  EXPECT_THROW(t.add_ramp(1.0, 5.0), std::invalid_argument);
}

TEST(PowerTrace, ScaledMultipliesPower) {
  pm::PowerTrace t;
  t.add_constant(2.0, 10.0);
  const pm::PowerTrace half = t.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.value(1.0), 5.0);
  EXPECT_DOUBLE_EQ(half.total_energy(), 10.0);
}

TEST(PowerTrace, ScaledRejectsNegative) {
  pm::PowerTrace t;
  t.add_constant(1.0, 1.0);
  EXPECT_THROW((void)t.scaled(-1.0), std::invalid_argument);
}

TEST(SplitAcrossRails, FractionsMustSumToOne) {
  pm::PowerTrace t;
  t.add_constant(1.0, 100.0);
  std::vector<pm::RailSplit> rails = {
      {.channel = {.name = "a"}, .fraction = 0.5},
      {.channel = {.name = "b"}, .fraction = 0.4},
  };
  EXPECT_THROW((void)pm::split_across_rails(t, rails, 0.0, 1.0),
               std::invalid_argument);
}

TEST(SplitAcrossRails, EnergyIsConserved) {
  pm::PowerTrace t;
  t.add_constant(2.0, 100.0);
  const pm::Capture cap =
      pm::split_across_rails(t, pm::discrete_gpu_rails(), 0.0, 2.0);
  EXPECT_EQ(cap.rails.size(), 3u);
  EXPECT_NEAR(cap.true_energy(), 200.0, 1e-9);
  EXPECT_NEAR(cap.true_avg_power(), 100.0, 1e-9);
}

TEST(SplitAcrossRails, NoRailsThrows) {
  pm::PowerTrace t;
  t.add_constant(1.0, 1.0);
  EXPECT_THROW((void)pm::split_across_rails(t, {}, 0.0, 1.0),
               std::invalid_argument);
}

TEST(RailPresets, FractionsSumToOne) {
  for (const auto& rails :
       {pm::mobile_board_rails(), pm::cpu_rails(), pm::discrete_gpu_rails()}) {
    double total = 0.0;
    for (const pm::RailSplit& r : rails) total += r.fraction;
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(RailPresets, GpuUsesInterposerForSlotPower) {
  const auto rails = pm::discrete_gpu_rails();
  bool found = false;
  for (const pm::RailSplit& r : rails)
    if (r.channel.probe == pm::ProbeKind::PcieInterposer) found = true;
  EXPECT_TRUE(found);
}

// ---- TraceCursor::region ------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// The constant regions spelled out: at or before the first breakpoint,
/// at or after the last (strictly after, when all share one time), and
/// strictly inside a segment with equal watts at both ends.
bool constant_oracle(const std::vector<pm::TracePoint>& p, double a, double b,
                     double& watts) {
  if (p.empty()) {
    watts = 0.0;
    return true;
  }
  if (b <= p.front().t) {
    watts = p.front().watts;
    return true;
  }
  const bool one_time = p.back().t == p.front().t;
  if (one_time ? a > p.back().t : a >= p.back().t) {
    watts = p.back().watts;
    return true;
  }
  for (std::size_t k = 0; k + 1 < p.size(); ++k)
    if (p[k].t < a && b < p[k + 1].t && p[k].watts == p[k + 1].watts) {
      watts = p[k].watts + 0.0;
      return true;
    }
  return false;
}

/// Whether [a, b] lies in one constant region, as the sampler asks it.
bool constant(pm::TraceCursor& cursor, double a, double b, double& watts) {
  const pm::TraceCursor::Region& r = cursor.region(a);
  if (!(a >= r.from && b <= r.to)) return false;
  watts = r.watts;
  return true;
}

/// constant(a, b) agrees with the oracle, and a constant answer is
/// value(x) to the bit at both ends of the span and inside it.
void expect_constant(pm::TraceCursor& cursor, const pm::PowerTrace& trace,
                     double a, double b) {
  SCOPED_TRACE(testing::Message() << "[" << a << ", " << b << "]");
  double want = 0.0;
  const bool want_flat = constant_oracle(trace.points(), a, b, want);
  double got = -1.0;
  ASSERT_EQ(constant(cursor, a, b, got), want_flat);
  if (!want_flat) return;
  EXPECT_EQ(bits(got), bits(want));
  for (const double x : {a, b, a + 0.5 * (b - a)})
    EXPECT_EQ(bits(got), bits(trace.value(x))) << x;
}

/// Flat, step, ramp, two abutting flats, flats from -0 W to +0 W and
/// back.
pm::PowerTrace regions_trace() {
  pm::PowerTrace t;
  t.add_point(1.0, 10.0);
  t.add_point(2.0, 10.0);
  t.add_point(2.0, 40.0);
  t.add_point(3.0, 70.0);
  t.add_point(4.0, 70.0);
  t.add_point(5.0, 70.0);
  t.add_point(6.0, -0.0);
  t.add_point(7.0, 0.0);
  t.add_point(8.0, -0.0);
  return t;
}

TEST(TraceCursorRegion, FindsEachKindOfRegion) {
  const pm::PowerTrace t = regions_trace();
  pm::TraceCursor c(t);
  double w = 0.0;
  EXPECT_TRUE(constant(c, 0.0, 1.0, w));  // up to the first breakpoint
  EXPECT_EQ(w, 10.0);
  EXPECT_FALSE(constant(c, 0.5, 1.5, w));  // two regions, one value
  EXPECT_TRUE(constant(c, 1.25, 1.75, w));
  EXPECT_EQ(w, 10.0);
  EXPECT_FALSE(constant(c, 1.5, 2.0, w));  // value(2.0) is after the step
  EXPECT_FALSE(constant(c, 2.0, 2.0, w));
  EXPECT_FALSE(constant(c, 2.5, 2.6, w));  // ramp
  // On the ramp, the next region is the flat after it.
  const pm::TraceCursor::Region& next = c.region(2.5);
  EXPECT_EQ(next.from, std::nextafter(3.0, 4.0));
  EXPECT_EQ(next.to, std::nextafter(4.0, 3.0));
  EXPECT_EQ(next.watts, 70.0);
  EXPECT_TRUE(constant(c, 3.5, 3.9, w));
  EXPECT_EQ(w, 70.0);
  EXPECT_FALSE(constant(c, 3.5, 4.5, w));  // across a breakpoint
  EXPECT_TRUE(constant(c, 4.2, 4.8, w));
  EXPECT_TRUE(constant(c, 6.5, 6.6, w));  // -0 W to +0 W reads +0 W
  EXPECT_EQ(bits(w), bits(0.0));
  EXPECT_FALSE(constant(c, 6.9, 7.0, w));
  EXPECT_TRUE(constant(c, 7.5, 7.6, w));  // +0 W to -0 W reads +0 W
  EXPECT_EQ(bits(w), bits(0.0));
  EXPECT_TRUE(constant(c, 8.0, 9.0, w));  // from the last breakpoint on
  EXPECT_EQ(bits(w), bits(-0.0));
  // Backwards, and NaN.
  EXPECT_TRUE(constant(c, 1.25, 1.5, w));
  EXPECT_EQ(w, 10.0);
  EXPECT_TRUE(constant(c, -5.0, 0.5, w));
  EXPECT_EQ(w, 10.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(constant(c, nan, nan, w));
  EXPECT_TRUE(constant(c, 3.6, 3.7, w));
  EXPECT_EQ(w, 70.0);
}

TEST(TraceCursorRegion, OnePointEmptyAndOneTimeTraces) {
  pm::PowerTrace one;
  one.add_point(2.0, 5.0);
  pm::PowerTrace same_time;  // value(1.0) is the first point's watts
  same_time.add_point(1.0, 10.0);
  same_time.add_point(1.0, 20.0);
  for (const pm::PowerTrace* t : {&one, &same_time}) {
    pm::TraceCursor c(*t);
    for (const auto& [a, b] : {std::pair{0.0, 1.0}, {0.0, 2.0}, {1.0, 1.0},
                               {1.0, 3.0}, {2.0, 3.0}, {2.5, 3.0},
                               {std::nextafter(1.0, 2.0), 5.0}})
      expect_constant(c, *t, a, b);
  }
  const pm::PowerTrace empty;
  pm::TraceCursor c(empty);
  expect_constant(c, empty, -1.0, 1.0);
}

TEST(TraceCursorRegion, MatchesTheRegionsOnRandomTracesAndSpans) {
  archline::stats::Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    // Breakpoints on a coarse grid, so times and watts repeat often.
    constexpr double kWatts[] = {0.0, -0.0, 10.0, 20.0};
    pm::PowerTrace t;
    double time = 0.0;
    const std::uint64_t n = rng.below(12);
    for (std::uint64_t i = 0; i < n; ++i) {
      time += 0.25 * static_cast<double>(rng.below(3));
      t.add_point(time, kWatts[rng.below(4)]);
    }
    const auto span = [&rng](double lo, double width) {
      const double a = lo + 0.125 * static_cast<double>(rng.below(48));
      return std::pair{a, a + width * static_cast<double>(rng.below(4))};
    };
    // A non-decreasing stream of starts, as the sampler makes, then
    // arbitrary ones, each with a few widths.
    pm::TraceCursor c(t);
    for (double a = -0.5; a < time + 0.5; a += 0.0625)
      for (const double width : {0.0, 0.03, 0.2, 0.7})
        expect_constant(c, t, a, a + width);
    for (int q = 0; q < 200; ++q) {
      const auto [a, b] = span(-1.0, 0.1);
      expect_constant(c, t, a, b);
    }
  }
}

TEST(Capture, WindowedEnergyOnly) {
  pm::PowerTrace t;
  t.add_constant(10.0, 10.0);
  pm::Capture cap;
  cap.rails.push_back({.channel = {.name = "x"}, .trace = t});
  cap.window_begin = 2.0;
  cap.window_end = 4.0;
  EXPECT_DOUBLE_EQ(cap.true_energy(), 20.0);
}

TEST(Capture, EmptyWindowPowerIsZero) {
  pm::Capture cap;
  cap.window_begin = 1.0;
  cap.window_end = 1.0;
  EXPECT_DOUBLE_EQ(cap.true_avg_power(), 0.0);
}

}  // namespace
