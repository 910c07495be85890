// Tests for the capped energy-roofline predictions, eqs. (1)-(7),
// including the paper's hand-checkable numbers.

#include <gtest/gtest.h>

#include <cmath>

#include "core/machine_params.hpp"
#include "core/roofline.hpp"
#include "support/table_machine.hpp"

namespace {

namespace co = archline::core;

// Published GTX Titan (SP) and Arndale GPU machines.
co::MachineParams titan() {
  return co::from_table(4020.0, 30.4, 239.0, 267.0, 123.0, 164.0);
}
co::MachineParams arndale_gpu() {
  return co::from_table(33.0, 84.2, 8.39, 518.0, 1.28, 4.83);
}
// A simple machine with friendly numbers for exact assertions:
// 1 Gflop/s at 1 nJ/flop, 1 GB/s at 2 nJ/B, pi1 = 1 W, cap = 10 W.
co::MachineParams toy(double delta_pi = 10.0) {
  co::MachineParams m;
  m.tau_flop = 1e-9;
  m.eps_flop = 1e-9;
  m.tau_mem = 1e-9;
  m.eps_mem = 2e-9;
  m.pi1 = 1.0;
  m.delta_pi = delta_pi;
  return m;
}

TEST(Time, ComputeBoundUsesFlopTerm) {
  const co::Workload w{.flops = 100e9, .bytes = 1e9};
  // toy: t_flop = 100 s, t_mem = 1 s, cap time = (100+2)/10 = 10.2 s.
  EXPECT_DOUBLE_EQ(co::time(toy(), w), 100.0);
  EXPECT_EQ(co::regime(toy(), w), co::Regime::Compute);
}

TEST(Time, MemoryBoundUsesByteTerm) {
  const co::Workload w{.flops = 1e9, .bytes = 100e9};
  // t_flop = 1 s, t_mem = 100 s, cap = (1 + 200)/10 = 20.1 s.
  EXPECT_DOUBLE_EQ(co::time(toy(), w), 100.0);
  EXPECT_EQ(co::regime(toy(), w), co::Regime::Memory);
}

TEST(Time, CapBoundUsesEnergyTerm) {
  const co::Workload w{.flops = 10e9, .bytes = 10e9};
  // t_flop = t_mem = 10 s; active energy = 10 + 20 = 30 J; cap 2 W -> 15 s.
  const co::MachineParams m = toy(2.0);
  EXPECT_DOUBLE_EQ(co::time(m, w), 15.0);
  EXPECT_EQ(co::regime(m, w), co::Regime::PowerCap);
}

TEST(Time, UncappedIgnoresEnergyTerm) {
  const co::Workload w{.flops = 10e9, .bytes = 10e9};
  EXPECT_DOUBLE_EQ(co::time(toy().without_cap(), w), 10.0);
}

TEST(Energy, SumsComponentsPlusConstant) {
  const co::Workload w{.flops = 10e9, .bytes = 5e9};
  // t_flop = 10 s (max); E = 10 J + 10 J + 1 W * 10 s = 30 J.
  EXPECT_DOUBLE_EQ(co::energy(toy(), w), 30.0);
}

TEST(AvgPower, IsEnergyOverTime) {
  const co::Workload w{.flops = 10e9, .bytes = 5e9};
  EXPECT_DOUBLE_EQ(co::avg_power(toy(), w), 3.0);
}

TEST(TimePerFlop, MatchesEq4AtRegimes) {
  const co::MachineParams m = toy();
  // Compute-bound at I >= B_tau = 1: T/W = tau_flop.
  EXPECT_DOUBLE_EQ(co::time_per_flop(m, 8.0), 1e-9);
  // Memory-bound at I = 1/4: T/W = tau_flop * B/I = 4 ns.
  EXPECT_DOUBLE_EQ(co::time_per_flop(m, 0.25), 4e-9);
}

TEST(TimePerFlop, CapTermDominatesUnderTightCap) {
  const co::MachineParams m = toy(1.0);
  // At I = 1: free term = 1; cap term = (pi_flop/dpi)(1+B_eps/I)
  //   = (1/1)(1+2) = 3 -> T/W = 3 ns.
  EXPECT_DOUBLE_EQ(co::time_per_flop(m, 1.0), 3e-9);
}

TEST(Performance, ReciprocalOfTimePerFlop) {
  const co::MachineParams m = titan();
  for (const double intensity : {0.25, 1.0, 16.0, 128.0})
    EXPECT_DOUBLE_EQ(co::performance(m, intensity),
                     1.0 / co::time_per_flop(m, intensity));
}

TEST(Performance, ApproachesPeakAtHighIntensity) {
  const co::MachineParams m = titan();
  EXPECT_NEAR(co::performance(m, 1e6), m.peak_flops(), 1e7);
}

TEST(Bandwidth, ApproachesPeakAtLowIntensity) {
  const co::MachineParams m = titan();
  EXPECT_NEAR(co::bandwidth(m, 1e-6), m.peak_bandwidth(), 1e6);
}

TEST(EnergyPerFlop, MatchesEq2) {
  const co::MachineParams m = toy();
  // I = 1: E/W = eps_f (1 + 2/1) + pi1 * T/W = 3e-9 + 1*1e-9 = 4e-9.
  EXPECT_DOUBLE_EQ(co::energy_per_flop(m, 1.0), 4e-9);
}

TEST(EnergyEfficiency, DecreasesWithDecreasingIntensity) {
  const co::MachineParams m = titan();
  EXPECT_GT(co::energy_efficiency(m, 64.0), co::energy_efficiency(m, 1.0));
  EXPECT_GT(co::energy_efficiency(m, 1.0), co::energy_efficiency(m, 0.125));
}

TEST(AvgPowerClosedForm, HighIntensityLimitIsFlopPower) {
  const co::MachineParams m = titan();
  EXPECT_NEAR(co::avg_power_closed_form(m, 1e9), m.pi1 + m.pi_flop(), 1e-3);
}

TEST(AvgPowerClosedForm, LowIntensityLimitIsMemPower) {
  const co::MachineParams m = titan();
  EXPECT_NEAR(co::avg_power_closed_form(m, 1e-9), m.pi1 + m.pi_mem(), 1e-3);
}

TEST(AvgPowerClosedForm, CapRegionIsFlat) {
  const co::MachineParams m = titan();
  const double lo = m.balance_lo();
  const double hi = m.balance_hi();
  ASSERT_LT(lo, hi);
  const double mid = std::sqrt(lo * hi);
  EXPECT_DOUBLE_EQ(co::avg_power_closed_form(m, mid), m.pi1 + m.delta_pi);
}

TEST(AvgPowerClosedForm, ContinuousAtBalanceBoundaries) {
  const co::MachineParams m = titan();
  for (const double b : {m.balance_lo(), m.balance_hi()}) {
    const double below = co::avg_power_closed_form(m, b * (1 - 1e-9));
    const double above = co::avg_power_closed_form(m, b * (1 + 1e-9));
    EXPECT_NEAR(below, above, 1e-6 * (m.pi1 + m.delta_pi));
  }
}

TEST(AvgPowerClosedForm, PeaksAtTimeBalanceWhenPowerSufficient) {
  co::MachineParams m = titan();
  m.delta_pi = 1000.0;
  const double at_balance =
      co::avg_power_closed_form(m, m.time_balance());
  EXPECT_NEAR(at_balance, m.pi1 + m.pi_flop() + m.pi_mem(), 1e-9);
  EXPECT_GT(at_balance, co::avg_power_closed_form(m, m.time_balance() * 4));
  EXPECT_GT(at_balance, co::avg_power_closed_form(m, m.time_balance() / 4));
}

TEST(RegimeAt, TransitionsAcrossIntensity) {
  const co::MachineParams m = titan();
  EXPECT_EQ(co::regime_at(m, m.balance_lo() / 2), co::Regime::Memory);
  EXPECT_EQ(co::regime_at(m, std::sqrt(m.balance_lo() * m.balance_hi())),
            co::Regime::PowerCap);
  EXPECT_EQ(co::regime_at(m, m.balance_hi() * 2), co::Regime::Compute);
}

TEST(RegimeNames, Letters) {
  EXPECT_EQ(co::regime_letter(co::Regime::Compute), 'F');
  EXPECT_EQ(co::regime_letter(co::Regime::Memory), 'M');
  EXPECT_EQ(co::regime_letter(co::Regime::PowerCap), 'C');
  EXPECT_STREQ(co::regime_name(co::Regime::PowerCap), "power-cap");
}

TEST(Crossover, TitanVsArndaleEfficiencyParity) {
  // §I-A: "the two systems match in flops per Joule for intensities as
  // high as 4 flop:Byte". The exact tie sits below 4 (our constants put
  // it at ~1.7), with near-parity (within ~20%) persisting to I = 4.
  const double crossing = co::crossover_intensity(
      arndale_gpu(), titan(), co::Metric::EnergyEfficiency);
  EXPECT_GT(crossing, 1.0);
  EXPECT_LT(crossing, 8.0);
  const double parity_at_4 = co::energy_efficiency(arndale_gpu(), 4.0) /
                             co::energy_efficiency(titan(), 4.0);
  EXPECT_GT(parity_at_4, 0.75);
  EXPECT_LT(parity_at_4, 1.25);
  // "even at more compute-bound intensities, the Arndale is within a
  // factor of two of the GTX Titan in energy-efficiency."
  const double ratio_at_256 = co::energy_efficiency(arndale_gpu(), 256.0) /
                              co::energy_efficiency(titan(), 256.0);
  EXPECT_GT(ratio_at_256, 0.4);
}

TEST(Crossover, NoSignChangeReturnsNegative) {
  // Titan dominates Arndale GPU in raw performance everywhere.
  const double crossing = co::crossover_intensity(
      titan(), arndale_gpu(), co::Metric::Performance);
  EXPECT_LT(crossing, 0.0);
}

TEST(MetricValue, DispatchesAllMetrics) {
  const co::MachineParams m = titan();
  EXPECT_DOUBLE_EQ(co::metric_value(m, co::Metric::Performance, 2.0),
                   co::performance(m, 2.0));
  EXPECT_DOUBLE_EQ(co::metric_value(m, co::Metric::EnergyEfficiency, 2.0),
                   co::energy_efficiency(m, 2.0));
  EXPECT_DOUBLE_EQ(co::metric_value(m, co::Metric::Power, 2.0),
                   co::avg_power_closed_form(m, 2.0));
}

TEST(PaperNumbers, TitanPowerThrottleAtQuarterIntensity) {
  // §V-D: Titan capped to delta_pi/8 runs at ~0.31x at I = 0.25.
  const co::MachineParams m = titan();
  co::MachineParams capped = m;
  capped.delta_pi = m.delta_pi / 8.0;
  const double ratio =
      co::performance(capped, 0.25) / co::performance(m, 0.25);
  EXPECT_NEAR(ratio, 0.31, 0.02);
}

}  // namespace
