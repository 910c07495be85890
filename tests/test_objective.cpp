// Tests for the fitting objective: residuals, prediction errors,
// and the heuristic initial guess.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "core/roofline.hpp"
#include "fit/objective.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "sim/factory.hpp"

namespace {

namespace ft = archline::fit;
namespace co = archline::core;
namespace mb = archline::microbench;
namespace pl = archline::platforms;
namespace si = archline::sim;

co::MachineParams titan() { return pl::platform("GTX Titan").machine(); }

mb::SuiteData titan_suite(std::uint64_t seed = 5) {
  const si::SimMachine m = si::make_machine(pl::platform("GTX Titan"));
  archline::stats::Rng rng(seed);
  mb::SuiteOptions opt;
  opt.intensities = {0.125, 0.5, 2.0, 8.0, 32.0, 128.0};
  opt.repeats = 2;
  opt.target_seconds = 0.1;
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  return mb::run_suite(m, opt, rng);
}

TEST(Residuals, ZeroAtGroundTruthWithoutNoise) {
  // Build noise-free observations directly from the model.
  const co::MachineParams m = titan();
  std::vector<mb::Observation> obs;
  for (const double intensity : {0.25, 2.0, 16.0}) {
    mb::Observation o;
    o.kernel.flops = 1e12;
    o.kernel.bytes = 1e12 / intensity;
    o.seconds = co::time(m, o.kernel.workload());
    o.joules = co::energy(m, o.kernel.workload());
    o.watts = o.joules / o.seconds;
    obs.push_back(o);
  }
  const auto r = ft::time_energy_residuals(m, obs);
  ASSERT_EQ(r.size(), 9u);
  for (const double v : r) EXPECT_NEAR(v, 0.0, 1e-12);
  EXPECT_NEAR(ft::sum_squared_residuals(m, obs), 0.0, 1e-20);
}

TEST(Residuals, WrongParametersProduceSignal) {
  const mb::SuiteData data = titan_suite();
  co::MachineParams wrong = titan();
  wrong.eps_flop *= 2.0;
  EXPECT_GT(ft::sum_squared_residuals(wrong, data.dram_sp),
            10.0 * ft::sum_squared_residuals(titan(), data.dram_sp));
}

// ---- Column objective vs the per-observation expression ------------------

/// The residuals as written per observation: core::time() and
/// core::energy(), power as E/T.
std::vector<double> reference_residuals(
    const co::MachineParams& m, std::span<const mb::Observation> obs) {
  std::vector<double> r;
  for (const mb::Observation& o : obs) {
    const co::Workload w = o.kernel.workload();
    const double t = co::time(m, w);
    const double e = co::energy(m, w);
    r.push_back(t / o.seconds - 1.0);
    r.push_back(e / o.joules - 1.0);
    r.push_back((e / t) / o.watts - 1.0);
  }
  return r;
}

double reference_sum(const co::MachineParams& m,
                     std::span<const mb::Observation> obs) {
  double acc = 0.0;
  for (const double v : reference_residuals(m, obs)) acc += v * v;
  return acc;
}

/// Bitwise equal, or both non-finite (NaN payloads may differ).
::testing::AssertionResult same_value(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
    return ::testing::AssertionSuccess();
  if (!std::isfinite(got) && !std::isfinite(want) &&
      std::isnan(got) == std::isnan(want))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << std::hexfloat << got << " vs " << want;
}

void expect_columns_match(const co::MachineParams& m,
                          std::span<const mb::Observation> obs) {
  ft::ObservationColumns cols(obs);
  ASSERT_EQ(cols.size(), obs.size());
  const std::vector<double> want = reference_residuals(m, obs);
  std::vector<double> got(want.size());
  cols.residuals(m, got);
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_TRUE(same_value(got[i], want[i])) << "residual " << i;
  EXPECT_TRUE(same_value(cols.sum_squared_residuals(m), reference_sum(m, obs)));
  EXPECT_TRUE(same_value(ft::sum_squared_residuals(m, obs),
                         reference_sum(m, obs)));
}

/// A log-uniform machine around Titan's constants, `spread` decades wide.
co::MachineParams random_machine(archline::stats::Rng& rng, double spread) {
  const co::MachineParams base = titan();
  const auto jiggle = [&](double v) {
    return v * std::pow(10.0, rng.uniform(-spread, spread));
  };
  co::MachineParams m;
  m.tau_flop = jiggle(base.tau_flop);
  m.tau_mem = jiggle(base.tau_mem);
  m.eps_flop = jiggle(base.eps_flop);
  m.eps_mem = jiggle(base.eps_mem);
  m.pi1 = jiggle(base.pi1);
  m.delta_pi = jiggle(base.delta_pi);
  return m;
}

/// Titan's suite with its repeats (runs of identical W and Q), plus an
/// odd-length prefix so the padding lane is exercised.
std::vector<std::vector<mb::Observation>> objective_inputs() {
  const mb::SuiteData data = titan_suite();
  std::vector<std::vector<mb::Observation>> out{data.dram_sp};
  out.emplace_back(data.dram_sp.begin(), data.dram_sp.begin() + 5);
  out.emplace_back(data.dram_sp.begin(), data.dram_sp.begin() + 1);
  // Interleaved kernels: no two neighbours share W and Q.
  std::vector<mb::Observation> mixed;
  for (std::size_t i = 0; i < data.dram_sp.size(); i += 2)
    mixed.push_back(data.dram_sp[i]);
  for (std::size_t i = 1; i < data.dram_sp.size(); i += 2)
    mixed.push_back(data.dram_sp[i]);
  out.push_back(mixed);
  return out;
}

TEST(ObservationColumns, MatchesPerObservationExpressionOverRandomMachines) {
  archline::stats::Rng rng(2024);
  for (const auto& obs : objective_inputs())
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(trial);
      co::MachineParams m = random_machine(rng, 1.5);
      expect_columns_match(m, obs);
      m.delta_pi = co::kUncapped;
      expect_columns_match(m, obs);
    }
}

TEST(ObservationColumns, MatchesWhenTheCapBindsEverywhere) {
  co::MachineParams m = titan();
  m.delta_pi = 1e-3;  // every kernel is cap-bound
  for (const auto& obs : objective_inputs()) expect_columns_match(m, obs);
}

TEST(ObservationColumns, MatchesOnOverflowAndNaNParameters) {
  // What decode(x) = exp(x) yields off the rails, and NaN terms whose
  // place in std::max's argument order decides the result.
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  const co::MachineParams base = titan();
  std::vector<co::MachineParams> machines;
  for (double co::MachineParams::*field :
       {&co::MachineParams::tau_flop, &co::MachineParams::tau_mem,
        &co::MachineParams::eps_flop, &co::MachineParams::eps_mem,
        &co::MachineParams::pi1, &co::MachineParams::delta_pi})
    for (const double v : {inf, nan, 0.0, std::exp(800.0), std::exp(-800.0)}) {
      co::MachineParams m = base;
      m.*field = v;
      machines.push_back(m);
    }
  for (const auto& obs : objective_inputs())
    for (const co::MachineParams& m : machines) expect_columns_match(m, obs);
}

TEST(ObservationColumns, EmptyInputSumsToZero) {
  ft::ObservationColumns cols({});
  EXPECT_EQ(cols.size(), 0u);
  EXPECT_EQ(cols.sum_squared_residuals(titan()), 0.0);
}

TEST(ObservationColumns, ShortOutputSpanThrows) {
  const mb::SuiteData data = titan_suite();
  ft::ObservationColumns cols(data.dram_sp);
  std::vector<double> out(3 * data.dram_sp.size() - 1);
  EXPECT_THROW(cols.residuals(titan(), out), std::invalid_argument);
}

TEST(PredictionErrors, SmallAtGroundTruth) {
  const mb::SuiteData data = titan_suite();
  const ft::PredictionErrors e =
      ft::prediction_errors(titan(), data.dram_sp);
  ASSERT_EQ(e.power.size(), data.dram_sp.size());
  for (const double v : e.power) EXPECT_LT(std::abs(v), 0.1);
  for (const double v : e.time) EXPECT_LT(std::abs(v), 0.1);
}

TEST(PredictionErrors, PerformanceIsInverseTimeError) {
  const mb::SuiteData data = titan_suite();
  const ft::PredictionErrors e =
      ft::prediction_errors(titan(), data.dram_sp);
  for (std::size_t i = 0; i < e.time.size(); ++i)
    EXPECT_NEAR(e.performance[i], 1.0 / (1.0 + e.time[i]) - 1.0, 1e-12);
}

}  // namespace
