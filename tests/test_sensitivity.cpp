// Tests for parameter elasticities — including the analytic identities
// the sensitivity definition must obey.

#include <gtest/gtest.h>
#include <cmath>

#include <stdexcept>

#include "core/sensitivity.hpp"
#include "platforms/spec.hpp"
#include "platforms/platform_db.hpp"

namespace {

namespace co = archline::core;
namespace pl = archline::platforms;

co::MachineParams titan() { return pl::platform("GTX Titan").machine(); }

TEST(WithParamScaled, ScalesTheRightField) {
  const co::MachineParams m = titan();
  EXPECT_DOUBLE_EQ(co::with_param_scaled(m, co::Param::TauFlop, 2.0).tau_flop,
                   2.0 * m.tau_flop);
  EXPECT_DOUBLE_EQ(co::with_param_scaled(m, co::Param::Pi1, 0.5).pi1,
                   0.5 * m.pi1);
  EXPECT_DOUBLE_EQ(
      co::with_param_scaled(m, co::Param::DeltaPi, 2.0).delta_pi,
      2.0 * m.delta_pi);
  // Untouched fields stay put.
  EXPECT_DOUBLE_EQ(co::with_param_scaled(m, co::Param::EpsMem, 3.0).eps_flop,
                   m.eps_flop);
}

TEST(WithParamScaled, RejectsNonPositiveFactor) {
  EXPECT_THROW((void)co::with_param_scaled(titan(), co::Param::Pi1, 0.0),
               std::invalid_argument);
}

TEST(Elasticity, MemoryBoundPerformanceIdentities) {
  // Deep in the memory-bound regime: perf = I / tau_mem, so elasticity to
  // tau_mem is -1 and to tau_flop is 0.
  const co::MachineParams m = titan();
  const double intensity = 0.02;  // far below B- ~ 4
  EXPECT_NEAR(co::elasticity(m, co::Param::TauMem,
                             co::Metric::Performance, intensity),
              -1.0, 1e-6);
  EXPECT_NEAR(co::elasticity(m, co::Param::TauFlop,
                             co::Metric::Performance, intensity),
              0.0, 1e-9);
}

TEST(Elasticity, ComputeBoundPerformanceIdentities) {
  const co::MachineParams m = titan();
  const double intensity = 4096.0;  // far above B+
  EXPECT_NEAR(co::elasticity(m, co::Param::TauFlop,
                             co::Metric::Performance, intensity),
              -1.0, 1e-6);
  EXPECT_NEAR(co::elasticity(m, co::Param::TauMem,
                             co::Metric::Performance, intensity),
              0.0, 1e-9);
}

TEST(Elasticity, CapBoundPerformanceFollowsDeltaPi) {
  // Inside the cap window, T = E_active / delta_pi: elasticity of perf to
  // delta_pi is +1.
  const co::MachineParams m = titan();
  const double mid = std::sqrt(m.balance_lo() * m.balance_hi());
  EXPECT_NEAR(co::elasticity(m, co::Param::DeltaPi,
                             co::Metric::Performance, mid),
              1.0, 1e-6);
}

TEST(Elasticity, EfficiencyWeightsSumToMinusOne) {
  // E/W = eps_flop + eps_mem/I + pi1 * T/W is 1-homogeneous in
  // (eps_flop, eps_mem, pi1) outside the cap regime, so the efficiency
  // elasticities to those three sum to -1.
  const co::MachineParams m = titan();
  for (const double intensity : {0.02, 4096.0}) {
    const double sum =
        co::elasticity(m, co::Param::EpsFlop,
                       co::Metric::EnergyEfficiency, intensity) +
        co::elasticity(m, co::Param::EpsMem,
                       co::Metric::EnergyEfficiency, intensity) +
        co::elasticity(m, co::Param::Pi1, co::Metric::EnergyEfficiency,
                       intensity);
    EXPECT_NEAR(sum, -1.0, 1e-4) << intensity;
  }
}

TEST(Elasticity, UncappedMachineInsensitiveToDeltaPi) {
  const co::MachineParams u = titan().without_cap();
  EXPECT_DOUBLE_EQ(co::elasticity(u, co::Param::DeltaPi,
                                  co::Metric::Performance, 4.0),
                   0.0);
}

TEST(Elasticity, ZeroPi1HandledGracefully) {
  co::MachineParams m = titan();
  m.pi1 = 0.0;
  EXPECT_DOUBLE_EQ(co::elasticity(m, co::Param::Pi1,
                                  co::Metric::EnergyEfficiency, 4.0),
                   0.0);
}

TEST(Elasticity, BadStepThrows) {
  EXPECT_THROW((void)co::elasticity(titan(), co::Param::Pi1,
                                    co::Metric::Power, 1.0, 0.0),
               std::invalid_argument);
}

TEST(SensitivityProfile, DominantPicksLargestMagnitude) {
  const co::SensitivityProfile s = co::sensitivity_profile(
      titan(), co::Metric::Performance, 0.02);
  EXPECT_EQ(s.dominant(), co::Param::TauMem);
  const co::SensitivityProfile c = co::sensitivity_profile(
      titan(), co::Metric::Performance, 4096.0);
  EXPECT_EQ(c.dominant(), co::Param::TauFlop);
}

TEST(SensitivityProfile, Pi1DominatesEfficiencyOnHighPi1Platforms) {
  // §VI: constant power is the critical limiting factor. On the Xeon Phi
  // (pi1 = 83% of max power), pi1 is a top energy lever. Note pi1 and
  // the binding tau share elasticity magnitude exactly (they enter as the
  // product pi1 * T), so "dominant" can tie: assert pi1 is both large in
  // absolute terms and within a whisker of the maximum.
  const co::SensitivityProfile s = co::sensitivity_profile(
      pl::platform("Xeon Phi").machine(), co::Metric::EnergyEfficiency,
      4.0);
  EXPECT_LT(s[co::Param::Pi1], -0.7);
  EXPECT_GE(std::abs(s[co::Param::Pi1]),
            std::abs(s[s.dominant()]) - 1e-6);
}

TEST(SensitivityProfile, IndexingMatchesParamOrder) {
  const co::SensitivityProfile s =
      co::sensitivity_profile(titan(), co::Metric::Power, 1.0);
  for (std::size_t i = 0; i < co::kAllParams.size(); ++i)
    EXPECT_DOUBLE_EQ(s[co::kAllParams[i]], s.values[i]);
}

TEST(ParamNames, AllNamed) {
  for (const co::Param p : co::kAllParams)
    EXPECT_STRNE(co::to_string(p), "?");
}

}  // namespace
