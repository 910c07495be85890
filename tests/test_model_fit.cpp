// Tests for the end-to-end fitting pipeline: parameter recovery from
// simulated measurements.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "fit/levmar.hpp"
#include "fit/model_fit.hpp"
#include "fit/nelder_mead.hpp"
#include "platforms/platform_db.hpp"
#include "serve/protocol.hpp"
#include "sim/factory.hpp"

namespace {

namespace ft = archline::fit;
namespace co = archline::core;
namespace mb = archline::microbench;
namespace pl = archline::platforms;
namespace si = archline::sim;

mb::SuiteData make_suite(const std::string& platform, std::uint64_t seed,
                         bool full = true) {
  const si::SimMachine m = si::make_machine(pl::platform(platform));
  archline::stats::Rng rng(seed);
  mb::SuiteOptions opt;
  opt.repeats = 2;
  opt.target_seconds = 0.15;
  opt.include_double = full;
  opt.include_caches = full;
  opt.include_random = full;
  return mb::run_suite(m, opt, rng);
}

void expect_close(double got, double want, double rel, const char* what) {
  EXPECT_NEAR(got, want, rel * want) << what;
}

TEST(FitMachine, RecoversTitanParameters) {
  const mb::SuiteData data = make_suite("GTX Titan", 101);
  const ft::FitResult r = ft::fit_machine(data);
  const co::MachineParams truth = pl::platform("GTX Titan").machine();
  expect_close(r.machine.tau_flop, truth.tau_flop, 0.05, "tau_flop");
  expect_close(r.machine.eps_flop, truth.eps_flop, 0.10, "eps_flop");
  expect_close(r.machine.tau_mem, truth.tau_mem, 0.05, "tau_mem");
  expect_close(r.machine.eps_mem, truth.eps_mem, 0.10, "eps_mem");
  expect_close(r.machine.pi1, truth.pi1, 0.10, "pi1");
  expect_close(r.machine.delta_pi, truth.delta_pi, 0.15, "delta_pi");
  EXPECT_GT(r.r_squared_perf, 0.95);
}

TEST(FitMachine, RecoversDoublePrecisionCosts) {
  const mb::SuiteData data = make_suite("GTX Titan", 102);
  const ft::FitResult r = ft::fit_machine(data);
  ASSERT_TRUE(r.dp.has_value());
  const pl::PlatformSpec& spec = pl::platform("GTX Titan");
  expect_close(1.0 / r.dp->tau_flop, spec.flop_dp->throughput, 0.05,
               "dp throughput");
  expect_close(r.dp->eps_flop, spec.flop_dp->energy_per_op, 0.15, "eps_d");
}

TEST(FitMachine, RecoversCacheLevels) {
  const mb::SuiteData data = make_suite("Xeon Phi", 103);
  const ft::FitResult r = ft::fit_machine(data);
  const pl::PlatformSpec& spec = pl::platform("Xeon Phi");
  ASSERT_TRUE(r.l1.has_value());
  ASSERT_TRUE(r.l2.has_value());
  expect_close(1.0 / r.l1->tau_byte, spec.mem_l1->throughput, 0.08,
               "L1 bandwidth");
  expect_close(r.l1->eps_byte, spec.mem_l1->energy_per_op, 0.4, "eps_L1");
  expect_close(1.0 / r.l2->tau_byte, spec.mem_l2->throughput, 0.08,
               "L2 bandwidth");
  expect_close(r.l2->eps_byte, spec.mem_l2->energy_per_op, 0.3, "eps_L2");
}

TEST(FitMachine, RecoversRandomAccessCosts) {
  const mb::SuiteData data = make_suite("Desktop CPU", 104);
  const ft::FitResult r = ft::fit_machine(data);
  const pl::PlatformSpec& spec = pl::platform("Desktop CPU");
  ASSERT_TRUE(r.random.has_value());
  expect_close(1.0 / r.random->tau_access, spec.mem_rand->throughput, 0.05,
               "access rate");
  expect_close(r.random->eps_access, spec.mem_rand->energy_per_op, 0.15,
               "eps_rand");
}

TEST(FitMachine, FittedLevelOrderingMatchesInclusiveCosts) {
  const mb::SuiteData data = make_suite("NUC CPU", 105);
  const ft::FitResult r = ft::fit_machine(data);
  ASSERT_TRUE(r.l1 && r.l2);
  EXPECT_LT(r.l1->eps_byte, r.l2->eps_byte);
  EXPECT_LT(r.l2->eps_byte, r.machine.eps_mem);
}

TEST(FitMachine, SkipsAbsentData) {
  const mb::SuiteData data = make_suite("NUC GPU", 106);
  const ft::FitResult r = ft::fit_machine(data);
  EXPECT_FALSE(r.dp.has_value());
  EXPECT_FALSE(r.l1.has_value());
  EXPECT_FALSE(r.l2.has_value());
  EXPECT_FALSE(r.random.has_value());
}

TEST(FitObservations, UncappedModelFitsWorseOnCapBoundPlatform) {
  // The NUC GPU spends most of its sweep power-capped; the uncapped model
  // cannot explain that region and must leave a larger residual.
  const mb::SuiteData data = make_suite("NUC GPU", 107, false);
  ft::FitOptions capped;
  capped.kind = ft::ModelKind::Capped;
  ft::FitOptions uncapped;
  uncapped.kind = ft::ModelKind::Uncapped;
  const ft::FitResult rc = ft::fit_observations(data.dram_sp, capped);
  const ft::FitResult ru = ft::fit_observations(data.dram_sp, uncapped);
  EXPECT_LT(rc.rss, 0.5 * ru.rss);
}

TEST(FitObservations, UncappedFitReturnsUncappedMachine) {
  const mb::SuiteData data = make_suite("Desktop CPU", 108, false);
  ft::FitOptions opt;
  opt.kind = ft::ModelKind::Uncapped;
  const ft::FitResult r = ft::fit_observations(data.dram_sp, opt);
  EXPECT_TRUE(r.machine.uncapped());
  EXPECT_EQ(r.kind, ft::ModelKind::Uncapped);
}

TEST(FitObservations, TooFewPointsThrows) {
  const mb::SuiteData data = make_suite("APU CPU", 109, false);
  const std::span<const mb::Observation> few(data.dram_sp.data(), 5);
  EXPECT_THROW((void)ft::fit_observations(few), std::invalid_argument);
}

TEST(FitObservations, DeterministicGivenSameData) {
  const mb::SuiteData data = make_suite("Arndale CPU", 110, false);
  const ft::FitResult a = ft::fit_observations(data.dram_sp);
  const ft::FitResult b = ft::fit_observations(data.dram_sp);
  EXPECT_DOUBLE_EQ(a.machine.tau_flop, b.machine.tau_flop);
  EXPECT_DOUBLE_EQ(a.rss, b.rss);
}

TEST(FitObservations, ReportsObservationCount) {
  const mb::SuiteData data = make_suite("APU GPU", 111, false);
  const ft::FitResult r = ft::fit_observations(data.dram_sp);
  EXPECT_EQ(r.observations, data.dram_sp.size());
}

/// Eight DRAM kernels of 1e9 flops at intensities 1/16 to 8 flop/B, timed
/// by tau_flop = 3e-11 s and tau_mem = 1.2e-10 s, with joules(seconds,
/// bytes) as the measured energy.
template <typename Joules>
std::vector<mb::Observation> eight_kernels(Joules joules) {
  std::vector<mb::Observation> obs;
  for (int k = 0; k < 8; ++k) {
    mb::Observation o;
    o.kernel.label = "k" + std::to_string(k);
    o.kernel.flops = 1e9;
    o.kernel.bytes = 1e9 * std::exp2(4.0 - k);
    o.seconds = std::max(o.kernel.flops * 3e-11, o.kernel.bytes * 1.2e-10);
    o.joules = joules(o.seconds, o.kernel.bytes);
    o.watts = o.joules / o.seconds;
    obs.push_back(o);
  }
  return obs;
}

TEST(FitObservations, OverflowingResidualsThrowInsteadOfCrashing) {
  // joules of 1e-300 make every relative residual overflow, so no start
  // of the capped search and no active set of the uncapped solve reaches
  // a finite objective. Both fits must reject the data, not crash.
  const std::vector<mb::Observation> obs =
      eight_kernels([](double, double) { return 1e-300; });
  for (const ft::ModelKind kind :
       {ft::ModelKind::Capped, ft::ModelKind::Uncapped}) {
    ft::FitOptions opt;
    opt.kind = kind;
    EXPECT_THROW((void)ft::fit_observations(obs, opt), std::invalid_argument);
  }
}

// ---- The uncapped fit's closed form --------------------------------------

/// A noisy DRAM sweep of a random uncapped machine: 16 intensities from
/// 1/64 to 512 flop/B, 2 repeats each, 1 % time and energy noise. The
/// engines' peak powers and pi1 are drawn within a factor of 3 of each
/// other, so that every constant carries a share of the energy that the
/// noise cannot hide, as on the Table I platforms.
struct UncappedSweep {
  std::vector<mb::Observation> obs;
  double idle_watts = 0.0;
};

UncappedSweep random_uncapped_sweep(archline::stats::Rng& rng) {
  UncappedSweep s;
  co::MachineParams m;
  m.tau_flop = 1.0 / rng.uniform(1e9, 5e12);
  m.tau_mem = 1.0 / rng.uniform(1e9, 3e11);
  const double pi_flop = rng.uniform(1.0, 200.0);
  const double pi_mem = pi_flop * rng.uniform(0.3, 3.0);
  m.eps_flop = pi_flop * m.tau_flop;
  m.eps_mem = pi_mem * m.tau_mem;
  m.pi1 = (pi_flop + pi_mem) * rng.uniform(0.3, 3.0);
  m.delta_pi = co::kUncapped;
  s.idle_watts = m.pi1 * rng.uniform(0.8, 1.2);
  for (int k = 0; k < 16; ++k) {
    const co::Workload w =
        co::Workload::from_intensity(1e10, std::exp2(-6.0 + k));
    for (int rep = 0; rep < 2; ++rep) {
      mb::Observation o;
      o.kernel.label = "k" + std::to_string(k);
      o.kernel.flops = w.flops;
      o.kernel.bytes = w.bytes;
      o.seconds = co::time(m, w) * (1.0 + 0.01 * rng.normal());
      o.joules = co::energy(m, w) * (1.0 + 0.01 * rng.normal());
      o.watts = o.joules / o.seconds;
      s.obs.push_back(o);
    }
  }
  return s;
}

/// The uncapped DRAM/SP objective: the observation residuals, then the
/// idle anchor when a hint is given.
double uncapped_objective(const co::MachineParams& m,
                          std::span<const mb::Observation> obs,
                          const ft::FitOptions& opt) {
  double acc = ft::sum_squared_residuals(m, obs);
  if (opt.idle_watts_hint > 0.0) {
    const double r = opt.idle_weight * (m.pi1 / opt.idle_watts_hint - 1.0);
    acc += r * r;
  }
  return acc;
}

/// The search the closed form replaced, kept as its oracle: 3-start
/// Nelder-Mead -> Levenberg-Marquardt over log (eps_flop, eps_mem, pi1)
/// with the taus fixed to the measured throughputs. Returns the lowest
/// objective it reaches.
double searched_uncapped_objective(std::span<const mb::Observation> obs,
                                   const ft::FitOptions& opt) {
  const ft::MeasuredThroughput taus = ft::measure_throughput(obs);
  const auto decode = [&](std::span<const double> x) {
    co::MachineParams m;
    m.tau_flop = taus.tau_flop;
    m.tau_mem = taus.tau_mem;
    m.eps_flop = std::exp(x[0]);
    m.eps_mem = std::exp(x[1]);
    m.pi1 = std::exp(x[2]);
    return m;
  };
  const auto objective = [&](std::span<const double> x) {
    return uncapped_objective(decode(x), obs, opt);
  };
  const auto residuals = [&](std::span<const double> x,
                             std::vector<double>& r) {
    const co::MachineParams m = decode(x);
    r = ft::time_energy_residuals(m, obs);
    if (opt.idle_watts_hint > 0.0)
      r.push_back(opt.idle_weight * (m.pi1 / opt.idle_watts_hint - 1.0));
  };
  const co::MachineParams seed = ft::initial_guess(obs, ft::ModelKind::Uncapped);
  co::MachineParams anchored = seed;
  anchored.pi1 = opt.idle_watts_hint;
  co::MachineParams raised = anchored;
  raised.pi1 *= 1.3;
  double best = std::numeric_limits<double>::infinity();
  for (const co::MachineParams& start : {anchored, raised, seed}) {
    const std::vector<double> x0 = {std::log(start.eps_flop),
                                    std::log(start.eps_mem),
                                    std::log(std::max(start.pi1, 1e-6))};
    ft::NelderMeadOptions nm_opt;
    nm_opt.max_evaluations = 20000 / 3;
    nm_opt.initial_step = 0.35;
    const ft::NelderMeadResult nm = ft::nelder_mead(objective, x0, nm_opt);
    ft::LevmarOptions lm_opt;
    lm_opt.max_iterations = 120;
    best = std::min(best, ft::levenberg_marquardt(residuals, nm.x, lm_opt).rss);
  }
  return best;
}

TEST(UncappedClosedForm, NoHigherThanTheMultiStartSearch) {
  archline::stats::Rng rng(2301);
  for (int trial = 0; trial < 24; ++trial) {
    const UncappedSweep s = random_uncapped_sweep(rng);
    ft::FitOptions opt;
    opt.kind = ft::ModelKind::Uncapped;
    opt.idle_watts_hint = s.idle_watts;
    const ft::FitResult r = ft::fit_observations(s.obs, opt);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.rss, uncapped_objective(r.machine, s.obs, opt)) << trial;
    const double searched = searched_uncapped_objective(s.obs, opt);
    EXPECT_LE(r.rss, searched * (1.0 + 1e-12))
        << "trial " << trial << ": closed form " << r.rss << ", search "
        << searched;
  }
}

TEST(UncappedClosedForm, GradientVanishesInEveryFreeConstant) {
  archline::stats::Rng rng(2302);
  for (int trial = 0; trial < 24; ++trial) {
    const UncappedSweep s = random_uncapped_sweep(rng);
    ft::FitOptions opt;
    opt.kind = ft::ModelKind::Uncapped;
    opt.idle_watts_hint = s.idle_watts;
    const ft::FitResult r = ft::fit_observations(s.obs, opt);
    // Central differences of the objective in each constant's log, i.e.
    // x * df/dx. Every constant of these sweeps is off its bound.
    for (double co::MachineParams::*c :
         {&co::MachineParams::eps_flop, &co::MachineParams::eps_mem,
          &co::MachineParams::pi1}) {
      ASSERT_GT(r.machine.*c, 1e-30) << "trial " << trial;
      const double h = 1e-6;
      co::MachineParams up = r.machine;
      co::MachineParams down = r.machine;
      up.*c *= 1.0 + h;
      down.*c *= 1.0 - h;
      const double slope = (uncapped_objective(up, s.obs, opt) -
                            uncapped_objective(down, s.obs, opt)) /
                           (2.0 * h);
      EXPECT_LT(std::abs(slope), 1e-7 * r.rss) << "trial " << trial;
    }
  }
}

TEST(UncappedClosedForm, ConstantsOnTheirBoundAreReportedAsDblMin) {
  // All energy is constant power: joules = pi1 t exactly, so the optimum
  // holds eps_flop and eps_mem at 0, which the fit reports as DBL_MIN.
  const std::vector<mb::Observation> obs =
      eight_kernels([](double seconds, double) { return 2.5 * seconds; });
  ft::FitOptions opt;
  opt.kind = ft::ModelKind::Uncapped;
  const ft::FitResult r = ft::fit_observations(obs, opt);
  EXPECT_EQ(r.machine.eps_flop, std::numeric_limits<double>::min());
  EXPECT_EQ(r.machine.eps_mem, std::numeric_limits<double>::min());
  EXPECT_NEAR(r.machine.pi1, 2.5, 1e-12);
  EXPECT_LT(r.rss, 1e-25);
  EXPECT_TRUE(r.converged);
  // Off the bound, the objective rises: the bound is the optimum.
  co::MachineParams off = r.machine;
  off.eps_flop = 1e-12;
  EXPECT_GT(ft::sum_squared_residuals(off, obs), r.rss);
  off = r.machine;
  off.eps_mem = 1e-12;
  EXPECT_GT(ft::sum_squared_residuals(off, obs), r.rss);
}

TEST(UncappedClosedForm, Pi1OnItsBoundIsZero) {
  // Energies below the active energy alone: the unconstrained optimum
  // has pi1 < 0, so the fit holds pi1 at its bound, 0, and the machine
  // stays valid.
  const std::vector<mb::Observation> obs =
      eight_kernels([](double seconds, double bytes) {
        return 1e9 * 5e-11 + bytes * 4e-10 - 0.05 * seconds;
      });
  ft::FitOptions opt;
  opt.kind = ft::ModelKind::Uncapped;
  const ft::FitResult r = ft::fit_observations(obs, opt);
  EXPECT_EQ(r.machine.pi1, 0.0);
  EXPECT_GT(r.machine.eps_flop, 1e-30);
  EXPECT_GT(r.machine.eps_mem, 1e-30);
  co::MachineParams off = r.machine;
  off.pi1 = 1e-3;
  EXPECT_GT(ft::sum_squared_residuals(off, obs), r.rss);
}

TEST(UncappedClosedForm, FitRequestWithEpsOnItsBoundRepliesWithDblMin) {
  // The same sweep through the `fit` endpoint: a finite reply, pinned.
  std::string req = R"({"type":"fit","uncapped":true,"observations":[)";
  for (const mb::Observation& o :
       eight_kernels([](double seconds, double) { return 2.5 * seconds; })) {
    char row[160];
    std::snprintf(row, sizeof row,
                  R"({"flops":%.17g,"bytes":%.17g,"seconds":%.17g,"joules":%.17g},)",
                  o.kernel.flops, o.kernel.bytes, o.seconds, o.joules);
    req += row;
  }
  req.back() = ']';
  req += "}";
  const archline::serve::Reply reply = archline::serve::handle_line(req);
  ASSERT_TRUE(reply.ok) << reply.body;
  EXPECT_EQ(reply.body,
            R"({"ok":true,"type":"fit","machine":{"tau_flop":3e-11,)"
            R"("eps_flop":2.2250738585072014e-308,"tau_mem":1.2e-10,)"
            R"("eps_mem":2.2250738585072014e-308,"pi1":2.4999999999999996,)"
            R"("delta_pi":null},"observations":8,)"
            R"("rss":7.888609052210118e-31,"r_squared_perf":1,)"
            R"("converged":true})");
}

}  // namespace
