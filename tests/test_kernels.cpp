// SoA kernel equivalence tests (core/kernels.hpp): the batch kernels must
// be BIT-identical to the scalar model — reply bytes ride on it (golden
// corpus, response cache). Every comparison here is on the exact bit
// pattern (std::bit_cast), not a tolerance: a kernel that is merely
// "close" would change serialized replies.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/kernels.hpp"
#include "core/roofline.hpp"
#include "core/scenarios.hpp"
#include "core/sensitivity.hpp"
#include "platforms/platform_db.hpp"
#include "stats/rng.hpp"

namespace {

namespace co = archline::core;
using archline::stats::Rng;

/// Same distribution as test_random_machines.cpp: physically sensible,
/// from tight caps to effectively unbounded.
co::MachineParams random_machine(Rng& rng) {
  co::MachineParams m;
  m.tau_flop = 1.0 / std::exp(rng.uniform(std::log(1e9), std::log(1e13)));
  m.tau_mem = 1.0 / std::exp(rng.uniform(std::log(1e9), std::log(5e11)));
  m.eps_flop = std::exp(rng.uniform(std::log(1e-12), std::log(1e-9)));
  m.eps_mem = std::exp(rng.uniform(std::log(1e-11), std::log(1e-9)));
  m.pi1 = rng.uniform(0.1, 200.0);
  const double demand = m.pi_flop() + m.pi_mem();
  m.delta_pi = demand * std::exp(rng.uniform(std::log(0.3), std::log(4.0)));
  m.validate("random_machine");
  return m;
}

/// Random workload spanning tiny to huge intensities (bytes can exceed
/// flops by orders of magnitude and vice versa).
co::Workload random_workload(Rng& rng) {
  co::Workload w;
  w.flops = std::exp(rng.uniform(std::log(1e3), std::log(1e15)));
  w.bytes = std::exp(rng.uniform(std::log(1e3), std::log(1e15)));
  return w;
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Machines under test: random capped + uncapped variants + the twelve
/// Table I platforms (the machines real requests resolve to).
std::vector<co::MachineParams> test_machines(Rng& rng, int random_count) {
  std::vector<co::MachineParams> out;
  for (int i = 0; i < random_count; ++i) {
    const co::MachineParams m = random_machine(rng);
    out.push_back(m);
    if (i % 3 == 0) out.push_back(m.without_cap());
  }
  for (const archline::platforms::PlatformSpec& spec :
       archline::platforms::all_platforms())
    out.push_back(spec.machine());
  return out;
}

void expect_prediction_bits(const co::MachineParams& m,
                            const co::WorkloadBatch& in,
                            const co::PredictionBatch& got) {
  ASSERT_EQ(got.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const co::Workload w{.flops = in.flops[i], .bytes = in.bytes[i]};
    const double t = co::time(m, w);
    const double e = co::energy(m, w);
    ASSERT_TRUE(bit_equal(got.intensity[i], w.intensity()))
        << "intensity[" << i << "]";
    ASSERT_TRUE(bit_equal(got.time_s[i], t)) << "time[" << i << "]";
    ASSERT_TRUE(bit_equal(got.energy_j[i], e)) << "energy[" << i << "]";
    ASSERT_TRUE(bit_equal(got.avg_power_w[i], co::avg_power(m, w)))
        << "power[" << i << "]";
    ASSERT_TRUE(bit_equal(got.performance[i], w.flops / t))
        << "performance[" << i << "]";
    ASSERT_TRUE(bit_equal(got.efficiency[i], w.flops / e))
        << "efficiency[" << i << "]";
    ASSERT_EQ(got.regime[i], co::regime(m, w)) << "regime[" << i << "]";
  }
}

// 10k+ random (machine, workload) pairs. Batch sizes vary so both the
// vectorized loop body and its remainder see work.
TEST(Kernels, PredictBatchBitIdenticalToScalarModel) {
  Rng rng(1234);
  const std::vector<co::MachineParams> machines = test_machines(rng, 120);
  std::size_t pairs = 0;
  co::PredictionBatch out;
  for (std::size_t mi = 0; mi < machines.size(); ++mi) {
    const co::MachineParams& m = machines[mi];
    co::WorkloadBatch batch;
    const std::size_t n = 1 + rng.below(128);
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) batch.push_back(random_workload(rng));
    pairs += n;

    co::predict_batch(m, batch, out);
    expect_prediction_bits(m, batch, out);
  }
  EXPECT_GE(pairs, 10000u);
}

void expect_curve_bits(const co::MachineParams& m,
                       const std::vector<double>& grid,
                       const co::MetricCurve& got) {
  ASSERT_EQ(got.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double I = grid[i];
    ASSERT_TRUE(bit_equal(got.power[i], co::avg_power_closed_form(m, I)))
        << "power @ I=" << I;
    ASSERT_TRUE(bit_equal(got.performance[i], co::performance(m, I)))
        << "performance @ I=" << I;
    ASSERT_TRUE(bit_equal(got.efficiency[i], co::energy_efficiency(m, I)))
        << "efficiency @ I=" << I;
    ASSERT_EQ(got.regime[i], co::regime_at(m, I)) << "regime @ I=" << I;
  }
}

TEST(Kernels, MetricCurvesBitIdenticalToClosedForms) {
  Rng rng(5678);
  const std::vector<co::MachineParams> machines = test_machines(rng, 80);
  co::MetricCurve out;
  for (const co::MachineParams& m : machines) {
    // Random log-uniform grid PLUS the machine's own balance boundaries,
    // where eq. (7) switches branch — exactly where a reassociated
    // kernel would first diverge.
    std::vector<double> grid;
    const std::size_t n = 1 + rng.below(64);
    for (std::size_t i = 0; i < n; ++i)
      grid.push_back(std::exp(rng.uniform(std::log(1e-4), std::log(1e6))));
    grid.push_back(m.time_balance());
    if (std::isfinite(m.balance_hi())) grid.push_back(m.balance_hi());
    if (m.balance_lo() > 0.0) grid.push_back(m.balance_lo());

    co::metric_curves(m, grid, out);
    expect_curve_bits(m, grid, out);
  }
}

TEST(Kernels, MetricValueMachinesBitIdenticalToMetricValue) {
  Rng rng(91011);
  const std::vector<co::MachineParams> machines = test_machines(rng, 60);
  std::vector<double> values(machines.size());
  for (const co::Metric metric :
       {co::Metric::Performance, co::Metric::EnergyEfficiency,
        co::Metric::Power}) {
    for (const double intensity : {0.01, 0.3, 1.0, 7.0, 100.0, 1e4}) {
      co::metric_value_machines(machines, metric, intensity, values.data());
      for (std::size_t i = 0; i < machines.size(); ++i)
        ASSERT_TRUE(bit_equal(values[i],
                              co::metric_value(machines[i], metric, intensity)))
            << "machine " << i << " metric " << static_cast<int>(metric)
            << " I=" << intensity;
    }
  }
}

// The rebuilt throttle_sweep must reproduce the original per-point
// closed-form loop exactly (scenario_sweep replies are golden-pinned).
TEST(Kernels, ThrottleSweepBitIdenticalToPerPointLoop) {
  Rng rng(1213);
  const std::vector<double> intensities = {0.0625, 0.5, 1, 4, 16, 128, 512};
  const std::vector<double> divisors = {1, 2, 4, 8};
  const std::vector<co::MachineParams> machines = test_machines(rng, 40);
  for (const co::MachineParams& m : machines) {
    const std::vector<co::ThrottlePoint> sweep =
        co::throttle_sweep(m, intensities, divisors);
    ASSERT_EQ(sweep.size(), intensities.size() * divisors.size());
    std::size_t idx = 0;
    for (const double k : divisors) {
      const co::MachineParams capped = co::with_cap_scaled(m, k);
      for (const double I : intensities) {
        const co::ThrottlePoint& p = sweep[idx++];
        ASSERT_TRUE(bit_equal(p.intensity, I));
        ASSERT_TRUE(bit_equal(p.cap_divisor, k));
        ASSERT_TRUE(bit_equal(p.power, co::avg_power_closed_form(capped, I)));
        ASSERT_TRUE(bit_equal(p.performance, co::performance(capped, I)));
        ASSERT_TRUE(
            bit_equal(p.efficiency, co::energy_efficiency(capped, I)));
        ASSERT_EQ(p.regime, co::regime_at(capped, I));
      }
    }
  }
}

// The batched sensitivity_profile must agree with per-param
// elasticity() calls bit-for-bit (same guards, same step).
TEST(Kernels, SensitivityProfileBitIdenticalToElasticity) {
  Rng rng(1415);
  const std::vector<co::MachineParams> machines = test_machines(rng, 40);
  for (const co::MachineParams& m : machines) {
    for (const co::Metric metric :
         {co::Metric::Performance, co::Metric::EnergyEfficiency,
          co::Metric::Power}) {
      for (const double intensity : {0.1, 1.0, 16.0, 512.0}) {
        const co::SensitivityProfile profile =
            co::sensitivity_profile(m, metric, intensity);
        for (const co::Param p : co::kAllParams)
          ASSERT_TRUE(bit_equal(profile[p],
                                co::elasticity(m, p, metric, intensity)))
              << co::to_string(p) << " I=" << intensity;
      }
    }
  }
}

}  // namespace
