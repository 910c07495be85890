// Property tests for the energy roofline model (paper §III, eqs. 1-7):
// instead of spot-checking Table I numbers (test_roofline.cpp does
// that), these sample hundreds of randomized machines and workloads
// from a seeded Rng and assert the model's structural invariants —
// monotonicity of T in W and Q, the E >= pi1*T floor, the average
// power window [pi1, pi1 + delta_pi], and the B- <= B <= B+ balance
// ordering. A violation means an eq. (1)-(7) transcription bug no
// fixed example would catch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/machine_params.hpp"
#include "core/roofline.hpp"
#include "stats/rng.hpp"

namespace {

using namespace archline::core;
using archline::stats::Rng;

/// A random but physically plausible machine: costs log-uniform across
/// several decades (Table I's platforms span ~2 decades per column),
/// pi1 in [0.1, 300] W, and delta_pi either uncapped (1 in 4) or drawn
/// so the cap actually binds for some intensities.
MachineParams random_machine(Rng& rng) {
  MachineParams m;
  m.tau_flop = std::exp(rng.uniform(std::log(1e-12), std::log(1e-8)));
  m.eps_flop = std::exp(rng.uniform(std::log(1e-12), std::log(1e-8)));
  m.tau_mem = std::exp(rng.uniform(std::log(1e-11), std::log(1e-7)));
  m.eps_mem = std::exp(rng.uniform(std::log(1e-11), std::log(1e-7)));
  m.pi1 = rng.uniform(0.1, 300.0);
  if (rng.below(4) == 0)
    m.delta_pi = kUncapped;
  else
    m.delta_pi =
        rng.uniform(0.05, 1.5) * (m.pi_flop() + m.pi_mem());
  m.validate("random_machine");
  return m;
}

Workload random_workload(Rng& rng) {
  return Workload{
      .flops = std::exp(rng.uniform(std::log(1e3), std::log(1e15))),
      .bytes = std::exp(rng.uniform(std::log(1e3), std::log(1e15)))};
}

constexpr int kMachines = 200;
constexpr int kWorkloadsPerMachine = 20;

TEST(ModelProperties, TimeIsMaxOfThreeTermsAndMonotone) {
  // Eq. (3): T = max(W tau_f, Q tau_m, (W eps_f + Q eps_m)/delta_pi).
  // Verify against a direct evaluation, then check monotonicity: more
  // work (either axis) can never take less time.
  Rng rng(2024);
  for (int i = 0; i < kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    for (int j = 0; j < kWorkloadsPerMachine; ++j) {
      const Workload w = random_workload(rng);
      const double t = time(m, w);
      double expected = std::max(w.flops * m.tau_flop, w.bytes * m.tau_mem);
      if (!m.uncapped())
        expected = std::max(
            expected,
            (w.flops * m.eps_flop + w.bytes * m.eps_mem) / m.delta_pi);
      EXPECT_DOUBLE_EQ(t, expected);

      // Monotone non-decreasing in W and in Q, and strictly positive.
      EXPECT_GT(t, 0.0);
      const double grow = 1.0 + rng.uniform(0.0, 4.0);
      EXPECT_GE(time(m, Workload{w.flops * grow, w.bytes}), t);
      EXPECT_GE(time(m, Workload{w.flops, w.bytes * grow}), t);
      EXPECT_GE(time(m, Workload{w.flops * grow, w.bytes * grow}), t);
    }
  }
}

TEST(ModelProperties, EnergyDominatesConstantPowerFloor) {
  // Eq. (1): E = W eps_f + Q eps_m + pi1 T, so E >= pi1 * T always,
  // with equality only in the (excluded) zero-work limit.
  Rng rng(2025);
  for (int i = 0; i < kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    for (int j = 0; j < kWorkloadsPerMachine; ++j) {
      const Workload w = random_workload(rng);
      const double t = time(m, w);
      const double e = energy(m, w);
      EXPECT_GT(e, m.pi1 * t);
      // And the flop/byte part is exactly the difference.
      EXPECT_NEAR(e - m.pi1 * t,
                  w.flops * m.eps_flop + w.bytes * m.eps_mem,
                  1e-9 * e);
    }
  }
}

TEST(ModelProperties, AveragePowerStaysInsideTheCapWindow) {
  // P = E/T must satisfy pi1 <= P <= pi1 + delta_pi: the machine never
  // draws less than its constant power nor more than its cap allows.
  // (Uncapped machines only have the lower bound.)
  Rng rng(2026);
  for (int i = 0; i < kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    for (int j = 0; j < kWorkloadsPerMachine; ++j) {
      const Workload w = random_workload(rng);
      const double p = avg_power(m, w);
      const double slack = 1e-9 * m.max_power();
      EXPECT_GE(p, m.pi1 - slack);
      EXPECT_LE(p, m.max_power() + slack);
      if (!m.uncapped()) {
        EXPECT_LE(p, m.pi1 + m.delta_pi + slack);
      }
    }
  }
}

TEST(ModelProperties, ClosedFormPowerMatchesDefinition) {
  // Eq. (7) is an algebraic rearrangement of E/T; the two evaluations
  // must agree at every intensity, including near B- and B+.
  Rng rng(2027);
  for (int i = 0; i < kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    for (int j = 0; j < kWorkloadsPerMachine; ++j) {
      const double intensity = std::exp(rng.uniform(std::log(1.0 / 1024.0),
                                                    std::log(1024.0)));
      const Workload w = Workload::from_intensity(1e9, intensity);
      const double direct = avg_power(m, w);
      const double closed = avg_power_closed_form(m, intensity);
      EXPECT_NEAR(direct, closed, 1e-9 * direct)
          << "at intensity " << intensity;
    }
  }
}

TEST(ModelProperties, BalancePointsAreOrdered) {
  // Eqs. (5)-(6): B_tau- <= B_tau <= B_tau+ for every machine, with
  // equality exactly when the cap is power-sufficient.
  Rng rng(2028);
  for (int i = 0; i < 5 * kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    const double lo = m.balance_lo();
    const double mid = m.time_balance();
    const double hi = m.balance_hi();
    EXPECT_GE(lo, 0.0);  // 0 is legal: delta_pi <= pi_mem leaves no
                         // flop headroom and the window floor vanishes
    EXPECT_LE(lo, mid * (1 + 1e-12));
    EXPECT_LE(mid, hi * (1 + 1e-12));
    if (m.delta_pi >= m.pi_flop() + m.pi_mem()) {  // power sufficient
      EXPECT_DOUBLE_EQ(lo, mid);
      EXPECT_DOUBLE_EQ(mid, hi);
    } else {
      // An insufficient cap strictly widens the window.
      EXPECT_LT(lo, mid);
      EXPECT_GT(hi, mid);
    }
  }
}

TEST(ModelProperties, RegimeMatchesDominantTerm) {
  // The reported regime must be the argmax of eq. (3)'s three terms,
  // and the throttled regime can only appear under an insufficient cap.
  Rng rng(2029);
  for (int i = 0; i < kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    for (int j = 0; j < kWorkloadsPerMachine; ++j) {
      const Workload w = random_workload(rng);
      const double t = time(m, w);
      switch (regime(m, w)) {
        case Regime::Compute:
          EXPECT_DOUBLE_EQ(t, w.flops * m.tau_flop);
          break;
        case Regime::Memory:
          EXPECT_DOUBLE_EQ(t, w.bytes * m.tau_mem);
          break;
        case Regime::PowerCap:
          ASSERT_FALSE(m.uncapped());
          EXPECT_DOUBLE_EQ(
              t, (w.flops * m.eps_flop + w.bytes * m.eps_mem) / m.delta_pi);
          EXPECT_LT(m.delta_pi, m.pi_flop() + m.pi_mem());
          break;
      }
    }
  }
}

TEST(ModelProperties, TimePerFlopAgreesWithWorkloadForm) {
  // Eq. (4) is eq. (3) divided by W at fixed intensity; the two
  // parameterizations must agree.
  Rng rng(2030);
  for (int i = 0; i < kMachines; ++i) {
    const MachineParams m = random_machine(rng);
    for (int j = 0; j < kWorkloadsPerMachine; ++j) {
      const double intensity = std::exp(rng.uniform(std::log(1.0 / 1024.0),
                                                    std::log(1024.0)));
      const double flops = std::exp(rng.uniform(std::log(1e6),
                                                std::log(1e12)));
      const Workload w = Workload::from_intensity(flops, intensity);
      EXPECT_NEAR(time(m, w) / flops, time_per_flop(m, intensity),
                  1e-9 * time_per_flop(m, intensity));
      EXPECT_NEAR(energy(m, w) / flops, energy_per_flop(m, intensity),
                  1e-9 * energy_per_flop(m, intensity));
    }
  }
}

}  // namespace
