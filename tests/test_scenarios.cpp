// Tests for the what-if scenario machinery (paper §V-D), including the
// cap-vs-DVFS study.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/roofline.hpp"
#include "core/scenarios.hpp"
#include "platforms/platform_db.hpp"

namespace {

namespace co = archline::core;
namespace pl = archline::platforms;

co::MachineParams titan() { return pl::platform("GTX Titan").machine(); }
co::MachineParams arndale() { return pl::platform("Arndale GPU").machine(); }

co::DvfsModel model() {
  return co::DvfsModel{.leakage_fraction = 0.3, .scale_memory = false,
                       .min_scale = 0.2};
}

TEST(CapScaled, DividesCap) {
  const co::MachineParams m = titan();
  const co::MachineParams half = co::with_cap_scaled(m, 2.0);
  EXPECT_DOUBLE_EQ(half.delta_pi, m.delta_pi / 2.0);
  EXPECT_DOUBLE_EQ(half.pi1, m.pi1);
  EXPECT_DOUBLE_EQ(half.tau_flop, m.tau_flop);
}

TEST(CapScaled, IdentityAtOne) {
  const co::MachineParams m = titan();
  EXPECT_DOUBLE_EQ(co::with_cap_scaled(m, 1.0).delta_pi, m.delta_pi);
}

TEST(CapScaled, RejectsDivisorBelowOne) {
  EXPECT_THROW((void)co::with_cap_scaled(titan(), 0.5),
               std::invalid_argument);
}

TEST(CapScaled, UncappedStaysUncapped) {
  const co::MachineParams u = titan().without_cap();
  EXPECT_TRUE(co::with_cap_scaled(u, 8.0).uncapped());
}

TEST(WithCap, SetsAbsoluteCap) {
  const co::MachineParams m = co::with_cap(titan(), 20.5);
  EXPECT_DOUBLE_EQ(m.delta_pi, 20.5);
}

TEST(WithCap, RejectsNonPositive) {
  EXPECT_THROW((void)co::with_cap(titan(), 0.0), std::invalid_argument);
}

TEST(Aggregate, ScalesThroughputsAndPowers) {
  const co::MachineParams m = arndale();
  const co::MachineParams agg = co::aggregate(m, 10);
  EXPECT_DOUBLE_EQ(agg.peak_flops(), 10.0 * m.peak_flops());
  EXPECT_DOUBLE_EQ(agg.peak_bandwidth(), 10.0 * m.peak_bandwidth());
  EXPECT_DOUBLE_EQ(agg.pi1, 10.0 * m.pi1);
  EXPECT_DOUBLE_EQ(agg.delta_pi, 10.0 * m.delta_pi);
  // Per-op energies are intensive quantities.
  EXPECT_DOUBLE_EQ(agg.eps_flop, m.eps_flop);
  EXPECT_DOUBLE_EQ(agg.eps_mem, m.eps_mem);
}

TEST(Aggregate, PreservesBalances) {
  const co::MachineParams m = arndale();
  const co::MachineParams agg = co::aggregate(m, 7);
  EXPECT_NEAR(agg.time_balance(), m.time_balance(), 1e-12);
  EXPECT_NEAR(agg.energy_balance(), m.energy_balance(), 1e-12);
}

TEST(Aggregate, PerformanceScalesLinearly) {
  const co::MachineParams m = arndale();
  const co::MachineParams agg = co::aggregate(m, 5);
  for (const double intensity : {0.25, 4.0, 64.0})
    EXPECT_NEAR(co::performance(agg, intensity),
                5.0 * co::performance(m, intensity),
                1e-9 * co::performance(agg, intensity));
}

TEST(Aggregate, IdentityAtOne) {
  const co::MachineParams m = arndale();
  const co::MachineParams agg = co::aggregate(m, 1);
  EXPECT_DOUBLE_EQ(agg.tau_flop, m.tau_flop);
  EXPECT_DOUBLE_EQ(agg.pi1, m.pi1);
}

TEST(Aggregate, RejectsZero) {
  EXPECT_THROW((void)co::aggregate(arndale(), 0), std::invalid_argument);
}

TEST(BlocksToMatchPower, PaperFig1Count) {
  // Fig. 1: matching GTX Titan's peak node power (~287 W) takes ~47
  // Arndale GPU boards at ~6.1 W each.
  const co::MachineParams big = titan();
  const int n = co::blocks_to_match_power(arndale(), big.pi1 + big.delta_pi);
  EXPECT_EQ(n, 47);
}

TEST(BlocksToMatchPower, ZeroTargetIsZero) {
  EXPECT_EQ(co::blocks_to_match_power(arndale(), 0.0), 0);
}

TEST(BlocksToMatchPower, ExactMultipleNotOvershot) {
  const co::MachineParams m = arndale();
  const double per_block = m.pi1 + m.delta_pi;
  EXPECT_EQ(co::blocks_to_match_power(m, 3.0 * per_block), 3);
}

TEST(ThrottleSweep, ProducesGridOfPoints) {
  const auto points = co::throttle_sweep(titan(), {0.25, 4.0, 64.0},
                                         {1.0, 2.0, 4.0, 8.0});
  EXPECT_EQ(points.size(), 12u);
}

TEST(ThrottleSweep, PowerDecreasesWithK) {
  const auto points = co::throttle_sweep(titan(), {1.0}, {1.0, 2.0, 4.0, 8.0});
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LE(points[i].power, points[i - 1].power * (1 + 1e-12));
}

TEST(ThrottleSweep, PerformanceDecreasesWithK) {
  const auto points =
      co::throttle_sweep(titan(), {4.0}, {1.0, 2.0, 4.0, 8.0});
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LE(points[i].performance, points[i - 1].performance * (1 + 1e-12));
}

TEST(ThrottleSweep, PowerReductionLessThanK) {
  // Fig. 6: "reducing delta_pi by k reduces overall power by less than k"
  // because pi1 stays.
  const co::MachineParams m = titan();
  const auto points = co::throttle_sweep(m, {m.time_balance()}, {1.0, 8.0});
  ASSERT_EQ(points.size(), 2u);
  const double reduction = points[0].power / points[1].power;
  EXPECT_LT(reduction, 8.0);
  EXPECT_GT(reduction, 1.0);
}

TEST(PowerBound, PaperScenario140W) {
  // §V-D-j: Titan bounded to ~140 W/node vs ~23 Arndale GPUs at I = 0.25.
  // At an exact 140 W bound (usable power 140 - 123 = 17 W) the Titan
  // slows to ~0.26x and the 23-board Arndale cluster is ~3.1x faster;
  // the paper's quoted 0.31x / 2.8x correspond to the rounder cap setting
  // delta_pi / 8 = 20.5 W (143.5 W node), checked separately below.
  const auto r =
      co::power_bound_comparison(titan(), arndale(), 140.0, 0.25);
  EXPECT_NEAR(r.big_slowdown, 0.26, 0.03);
  EXPECT_EQ(r.small_count, 23);
  EXPECT_NEAR(r.speedup, 2.8, 0.5);
}

TEST(PowerBound, PaperCapSettingDeltaPiOverEight) {
  // The paper's exact cap setting: delta_pi/8 -> 0.31x at I = 0.25.
  const co::MachineParams m = titan();
  const auto r = co::power_bound_comparison(
      titan(), arndale(), m.pi1 + m.delta_pi / 8.0, 0.25);
  EXPECT_NEAR(r.big_slowdown, 0.31, 0.02);
  EXPECT_NEAR(r.big_cap_divisor, 8.0, 0.01);
}

TEST(PowerBound, BoundBelowConstantPowerThrows) {
  EXPECT_THROW(
      (void)co::power_bound_comparison(titan(), arndale(), 100.0, 0.25),
      std::invalid_argument);
}

TEST(PowerBound, GenerousBoundLeavesBigUnthrottled) {
  const co::MachineParams big = titan();
  const auto r = co::power_bound_comparison(
      big, arndale(), big.pi1 + big.delta_pi, 0.25);
  EXPECT_NEAR(r.big_slowdown, 1.0, 1e-9);
}


TEST(ThrottleRequirement, NoThrottleUnderGenerousCap) {
  const co::MachineParams m = titan();
  const auto r = co::throttle_requirement(m, 4.0, 1000.0);
  EXPECT_NEAR(r.slowdown, 1.0, 1e-12);
  // At I = 4 < B_tau ~ 16.8 the machine is memory-bound: memory at full
  // rate, flops at I/B of sustained.
  EXPECT_NEAR(r.mem_rate_fraction, 1.0, 1e-12);
  EXPECT_NEAR(r.flop_rate_fraction, 4.0 / m.time_balance(), 1e-9);
}

TEST(ThrottleRequirement, PaperTitanNumbers) {
  // SV-D: Titan at delta_pi/8 and I = 1/4 runs at ~0.31x -> slowdown
  // ~3.2x; both engines slow by the same factor.
  const co::MachineParams m = titan();
  const auto r = co::throttle_requirement(m, 0.25, m.delta_pi / 8.0);
  EXPECT_NEAR(1.0 / r.slowdown, 0.31, 0.02);
  EXPECT_EQ(r.regime, co::Regime::PowerCap);
  // Memory was the binding engine at I = 1/4: its achieved fraction is
  // exactly 1/slowdown.
  EXPECT_NEAR(r.mem_rate_fraction, 1.0 / r.slowdown, 1e-9);
}

TEST(ThrottleRequirement, RateFractionsReproduceCapPower) {
  // Sanity: active power at the throttled rates equals the cap when the
  // cap binds.
  const co::MachineParams m = titan();
  const double cap = m.delta_pi / 4.0;
  for (const double intensity : {0.5, 4.0, 16.8, 64.0}) {
    const auto r = co::throttle_requirement(m, intensity, cap);
    if (r.regime != co::Regime::PowerCap) continue;
    const double active = m.pi_flop() * r.flop_rate_fraction +
                          m.pi_mem() * r.mem_rate_fraction;
    EXPECT_NEAR(active, cap, 1e-6 * cap) << intensity;
  }
}

TEST(ThrottleRequirement, TighterCapMeansMoreThrottle) {
  const co::MachineParams m = titan();
  double prev = 1.0;
  for (const double k : {1.0, 2.0, 4.0, 8.0}) {
    const auto r = co::throttle_requirement(m, 8.0, m.delta_pi / k);
    EXPECT_GE(r.slowdown, prev * (1 - 1e-12));
    prev = r.slowdown;
  }
}

TEST(ThrottleRequirement, BadArgumentsThrow) {
  EXPECT_THROW((void)co::throttle_requirement(titan(), 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)co::throttle_requirement(titan(), 0.0, 10.0),
               std::invalid_argument);
}


TEST(OperatingPointSweep, TableOrderAndConsistency) {
  const pl::PlatformSpec& spec = pl::platform("GTX Titan");
  const co::Workload w{.flops = 1e12, .bytes = 1e11};
  const auto rows =
      co::operating_point_sweep(titan(), spec.operating_points.points, w);
  ASSERT_EQ(rows.size(), spec.operating_points.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const co::MachineParams at = spec.machine_at_point(i);
    EXPECT_EQ(rows[i].point_index, i);
    EXPECT_DOUBLE_EQ(rows[i].freq_scale,
                     spec.operating_points.points[i].freq_scale);
    EXPECT_DOUBLE_EQ(rows[i].time_s, co::time(at, w));
    EXPECT_DOUBLE_EQ(rows[i].energy_j, co::energy(at, w));
    EXPECT_DOUBLE_EQ(rows[i].avg_power_w, co::avg_power(at, w));
    EXPECT_DOUBLE_EQ(rows[i].edp, rows[i].energy_j * rows[i].time_s);
  }
  // The nominal (last) row is the plain eq. (1)-(3) prediction.
  EXPECT_DOUBLE_EQ(rows.back().time_s, co::time(titan(), w));
}

TEST(DvfsScaleForPower, NoScalingWhenTargetGenerous) {
  const co::MachineParams m = titan();
  EXPECT_DOUBLE_EQ(co::dvfs_scale_for_power(m, model(), m.max_power() + 10),
                   1.0);
}

TEST(DvfsScaleForPower, MeetsTheTarget) {
  const co::MachineParams m = titan();
  const double target = m.pi1 + 0.6 * (m.max_power() - m.pi1);
  const double s = co::dvfs_scale_for_power(m, model(), target);
  EXPECT_LT(s, 1.0);
  EXPECT_GE(s, 0.2);
  const co::MachineParams scaled =
      co::apply_operating_point(m, co::dvfs_operating_point(model(), s));
  EXPECT_LE(scaled.max_power(), target * (1 + 1e-6));
}

TEST(DvfsScaleForPower, UnreachableTargetThrows) {
  const co::MachineParams m = titan();
  EXPECT_THROW(
      (void)co::dvfs_scale_for_power(m, model(), m.pi1 + 0.1),
      std::invalid_argument);
}

TEST(CompareCapVsDvfs, CapWinsAtLowIntensity) {
  // At bandwidth-bound intensities the cap barely throttles, while DVFS
  // needlessly slows the (unthrottled) flop engine; cap performance must
  // be at least as good.
  const co::MachineParams m = titan();
  const double target = m.pi1 + 0.6 * (m.max_power() - m.pi1);
  const auto c = co::compare_cap_vs_dvfs(m, model(), target, 0.25);
  EXPECT_GE(c.cap_performance, c.dvfs_performance * 0.999);
}

TEST(CompareCapVsDvfs, DvfsCanWinEfficiencyInMidRange) {
  // Around the balance point DVFS buys back per-flop energy via the V^2
  // term; verify the advantage exists somewhere for the Xeon Phi (as the
  // bench shows at I = 8).
  const co::MachineParams m = pl::platform("Xeon Phi").machine();
  const double target = m.pi1 + 0.85 * (m.max_power() - m.pi1);
  const auto c = co::compare_cap_vs_dvfs(m, model(), target, 8.0);
  EXPECT_GT(c.efficiency_advantage(), 1.0);
}

TEST(CompareCapVsDvfs, TargetBelowPi1Throws) {
  const co::MachineParams m = titan();
  EXPECT_THROW(
      (void)co::compare_cap_vs_dvfs(m, model(), m.pi1 - 1.0, 1.0),
      std::invalid_argument);
}

TEST(CompareCapVsDvfs, FieldsConsistent) {
  const co::MachineParams m = titan();
  const double target = m.pi1 + 0.7 * (m.max_power() - m.pi1);
  const auto c = co::compare_cap_vs_dvfs(m, model(), target, 4.0);
  EXPECT_DOUBLE_EQ(c.target_watts, target);
  EXPECT_DOUBLE_EQ(c.intensity, 4.0);
  EXPECT_GT(c.cap_performance, 0.0);
  EXPECT_GT(c.dvfs_performance, 0.0);
  EXPECT_GT(c.frequency_scale, 0.0);
  EXPECT_LE(c.frequency_scale, 1.0);
}

}  // namespace
