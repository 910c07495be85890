// Tests for core::MachineParams — derived quantities and invariants of
// eqs. (5)-(6).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/machine_params.hpp"
#include "core/units.hpp"
#include "support/table_machine.hpp"

namespace {

namespace co = archline::core;

// A machine shaped like the published GTX Titan (Table I, SP).
co::MachineParams titan() {
  return co::from_table(4020.0, 30.4, 239.0, 267.0, 123.0, 164.0);
}

TEST(Workload, IntensityIsRatio) {
  const co::Workload w{.flops = 8.0, .bytes = 2.0};
  EXPECT_DOUBLE_EQ(w.intensity(), 4.0);
}

TEST(Workload, FromIntensityRoundTrips) {
  const co::Workload w = co::Workload::from_intensity(1e9, 0.25);
  EXPECT_DOUBLE_EQ(w.flops, 1e9);
  EXPECT_DOUBLE_EQ(w.intensity(), 0.25);
  EXPECT_DOUBLE_EQ(w.bytes, 4e9);
}

TEST(MachineParams, MakeFromTableUnits) {
  const co::MachineParams m = titan();
  EXPECT_NEAR(m.peak_flops(), 4.02e12, 1e6);
  EXPECT_NEAR(m.peak_bandwidth(), 239e9, 1e3);
  EXPECT_NEAR(m.eps_flop, 30.4e-12, 1e-15);
  EXPECT_NEAR(m.eps_mem, 267e-12, 1e-15);
}

TEST(MachineParams, PowerPerEngine) {
  const co::MachineParams m = titan();
  // pi_flop = eps_flop / tau_flop = 30.4 pJ * 4.02 Tflop/s ~ 122 W.
  EXPECT_NEAR(m.pi_flop(), 122.2, 0.5);
  // pi_mem = 267 pJ/B * 239 GB/s ~ 63.8 W.
  EXPECT_NEAR(m.pi_mem(), 63.8, 0.5);
}

TEST(MachineParams, Balances) {
  const co::MachineParams m = titan();
  // B_tau = tau_mem / tau_flop = 4020/239 ~ 16.8 flop/B.
  EXPECT_NEAR(m.time_balance(), 4020.0 / 239.0, 1e-6);
  // B_eps = eps_mem / eps_flop = 267/30.4 ~ 8.78 flop/B.
  EXPECT_NEAR(m.energy_balance(), 267.0 / 30.4, 1e-6);
}

TEST(MachineParams, BalanceIntervalOrdering) {
  const co::MachineParams m = titan();
  EXPECT_LE(m.balance_lo(), m.time_balance());
  EXPECT_GE(m.balance_hi(), m.time_balance());
}

TEST(MachineParams, SufficientPowerCollapsesInterval) {
  co::MachineParams m = titan();
  m.delta_pi = 500.0;  // > pi_flop + pi_mem ~ 186 W
  EXPECT_GE(m.delta_pi, m.pi_flop() + m.pi_mem());  // power sufficient
  EXPECT_DOUBLE_EQ(m.balance_lo(), m.time_balance());
  EXPECT_DOUBLE_EQ(m.balance_hi(), m.time_balance());
}

TEST(MachineParams, UncappedIntervalCollapses) {
  const co::MachineParams m = titan().without_cap();
  EXPECT_TRUE(m.uncapped());
  EXPECT_DOUBLE_EQ(m.balance_lo(), m.time_balance());
  EXPECT_DOUBLE_EQ(m.balance_hi(), m.time_balance());
}

TEST(MachineParams, TitanIntervalMatchesHandComputation) {
  const co::MachineParams m = titan();
  // delta_pi = 164 < pi_flop + pi_mem ~ 186: the cap binds.
  EXPECT_LT(m.delta_pi, m.pi_flop() + m.pi_mem());
  // B+ = B * max(1, pi_mem / (delta_pi - pi_flop)).
  const double expected_hi =
      m.time_balance() * m.pi_mem() / (m.delta_pi - m.pi_flop());
  EXPECT_NEAR(m.balance_hi(), expected_hi, 1e-9);
  // B- = B * min(1, (delta_pi - pi_mem) / pi_flop).
  const double expected_lo =
      m.time_balance() * (m.delta_pi - m.pi_mem()) / m.pi_flop();
  EXPECT_NEAR(m.balance_lo(), expected_lo, 1e-9);
}

TEST(MachineParams, CapBelowFlopPowerGivesInfiniteHi) {
  co::MachineParams m = titan();
  m.delta_pi = 100.0;  // below pi_flop ~ 122 W
  EXPECT_TRUE(std::isinf(m.balance_hi()));
}

TEST(MachineParams, CapBelowMemPowerGivesZeroLo) {
  co::MachineParams m = titan();
  m.delta_pi = 50.0;  // below pi_mem ~ 64 W
  EXPECT_DOUBLE_EQ(m.balance_lo(), 0.0);
}

TEST(MachineParams, MaxPowerCappedAndFree) {
  const co::MachineParams capped = titan();
  EXPECT_NEAR(capped.max_power(), 123.0 + 164.0, 1e-9);
  co::MachineParams roomy = titan();
  roomy.delta_pi = 1000.0;
  EXPECT_NEAR(roomy.max_power(), 123.0 + roomy.pi_flop() + roomy.pi_mem(),
              1e-9);
}

TEST(MachineParams, WithoutCapPreservesEverythingElse) {
  const co::MachineParams m = titan();
  const co::MachineParams u = m.without_cap();
  EXPECT_DOUBLE_EQ(u.tau_flop, m.tau_flop);
  EXPECT_DOUBLE_EQ(u.eps_mem, m.eps_mem);
  EXPECT_DOUBLE_EQ(u.pi1, m.pi1);
  EXPECT_TRUE(u.uncapped());
}

TEST(MachineParamsValidate, AcceptsGoodMachine) {
  EXPECT_NO_THROW(titan().validate());
}

TEST(MachineParamsValidate, RejectsBadFields) {
  co::MachineParams m = titan();
  m.tau_flop = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = titan();
  m.eps_mem = -1.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = titan();
  m.pi1 = -0.1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = titan();
  m.delta_pi = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(MachineParamsValidate, ZeroPi1IsAllowed) {
  co::MachineParams m = titan();
  m.pi1 = 0.0;
  EXPECT_NO_THROW(m.validate());
}

TEST(Units, Conversions) {
  namespace u = archline::units;
  EXPECT_DOUBLE_EQ(u::from_picojoules(30.4), 30.4e-12);
  EXPECT_DOUBLE_EQ(u::to_picojoules(1e-12), 1.0);
  EXPECT_DOUBLE_EQ(u::from_gflops(2.0), 2e9);
  EXPECT_DOUBLE_EQ(u::to_gbytes(5e9), 5.0);
  EXPECT_DOUBLE_EQ(u::per_op_from_rate(4e9), 0.25e-9);
}

}  // namespace
