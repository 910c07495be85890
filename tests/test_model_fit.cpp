// Tests for the end-to-end fitting pipeline: parameter recovery from
// simulated measurements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/roofline.hpp"
#include "fit/model_fit.hpp"
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

// ---- The capped fit's two branches ---------------------------------------

/// eight_kernels' sweep measured exactly on `m`, cap included.
std::vector<mb::Observation> eight_kernels_on(const co::MachineParams& m) {
  std::vector<mb::Observation> obs =
      eight_kernels([](double, double) { return 1.0; });
  for (mb::Observation& o : obs) {
    o.seconds = co::time(m, o.kernel.workload());
    o.joules = co::energy(m, o.kernel.workload());
    o.watts = o.joules / o.seconds;
  }
  return obs;
}

co::MachineParams eight_kernel_machine(double delta_pi) {
  co::MachineParams m;
  m.tau_flop = 3e-11;
  m.eps_flop = 4.7e-11;
  m.tau_mem = 1.2e-10;
  m.eps_mem = 3.8e-10;
  m.pi1 = 2.7;
  m.delta_pi = delta_pi;
  return m;
}

TEST(CappedBranches, NoBindingCapPublishesTheFlatBound) {
  // No kernel reaches the cap, so the flat branch wins, and it publishes
  // delta_pi at pi_flop + pi_mem: no residual depends on delta_pi from
  // there up.
  const ft::FitResult r = ft::fit_observations(
      eight_kernels_on(eight_kernel_machine(co::kUncapped)));
  EXPECT_TRUE(r.flat_cap);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.machine.delta_pi, r.machine.pi_flop() + r.machine.pi_mem());
  EXPECT_NEAR(r.machine.eps_flop, 4.7e-11, 1e-20);
  EXPECT_NEAR(r.machine.eps_mem, 3.8e-10, 1e-19);
  EXPECT_NEAR(r.machine.pi1, 2.7, 1e-9);
  EXPECT_LT(r.rss, 1e-25);
  EXPECT_GE(r.runner_up_rss, r.rss);
}

TEST(CappedBranches, BindingCapIsRecovered) {
  // A 4 W cap binds on the ridge kernel (intensity 4, demand 4.73 W)
  // and on no other, so the fit must find it from that one kernel.
  const ft::FitResult r =
      ft::fit_observations(eight_kernels_on(eight_kernel_machine(4.0)));
  EXPECT_FALSE(r.flat_cap);
  EXPECT_NEAR(r.machine.delta_pi, 4.0, 1e-6);
  EXPECT_NEAR(r.machine.pi1, 2.7, 1e-6);
  EXPECT_LT(r.rss, 1e-12);
  EXPECT_GT(r.runner_up_rss, 1e-6);
}

TEST(CappedBranches, EpsOnItsBoundIsReportedAsDblMin) {
  // All energy is constant power, so both eps sit on their zero bound.
  // The capped fit reports them as DBL_MIN, as the uncapped one does,
  // and the machine validates.
  const std::vector<mb::Observation> obs =
      eight_kernels([](double seconds, double) { return 2.5 * seconds; });
  const ft::FitResult r = ft::fit_observations(obs);
  EXPECT_EQ(r.machine.eps_flop, std::numeric_limits<double>::min());
  EXPECT_EQ(r.machine.eps_mem, std::numeric_limits<double>::min());
  EXPECT_NEAR(r.machine.pi1, 2.5, 1e-12);
  EXPECT_NO_THROW(r.machine.validate());
}

TEST(CappedBranches, UncappedFitRecordsNoBranch) {
  ft::FitOptions opt;
  opt.kind = ft::ModelKind::Uncapped;
  const ft::FitResult r = ft::fit_observations(
      eight_kernels_on(eight_kernel_machine(co::kUncapped)), opt);
  EXPECT_FALSE(r.flat_cap);
  EXPECT_EQ(r.runner_up_rss, std::numeric_limits<double>::infinity());
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
  double acc = ft::ObservationColumns(obs).sum_squared_residuals(m);
  if (opt.idle_watts_hint > 0.0) {
    const double r = opt.idle_weight * (m.pi1 / opt.idle_watts_hint - 1.0);
    acc += r * r;
  }
  return acc;
}

/// The KKT residuals of the uncapped objective at `m`, one per constant
/// of x = (eps_flop, eps_mem, pi1). With the taus fixed, every residual
/// is affine in x: the time residual T/t - 1 is constant, the energy
/// residual is (W, Q, T)/e . x - 1, the power residual (W, Q, T)/(T p) .
/// x - 1 and the idle anchor w pi1 / h - w. So the objective is a convex
/// quadratic in x, and x >= 0 is its global minimum iff each constant's
/// slope a_k . r is 0 where x_k > 0 and >= 0 where x_k = 0. Returns each
/// slope as a cosine, a_k . r / (|a_k| |r|) over the rows that depend on
/// x, so that one tolerance serves every scale. An eps of DBL_MIN counts
/// as on its bound.
struct Kkt {
  double cosine[3];
  bool on_bound[3];
};

Kkt uncapped_kkt(const co::MachineParams& m,
                 std::span<const mb::Observation> obs,
                 const ft::FitOptions& opt) {
  const double x[3] = {m.eps_flop, m.eps_mem, m.pi1};
  double slope[3] = {0.0, 0.0, 0.0};
  double col2[3] = {0.0, 0.0, 0.0};
  double rss = 0.0;
  const auto row = [&](const double (&a)[3], double b) {
    const double r = a[0] * x[0] + a[1] * x[1] + a[2] * x[2] - b;
    rss += r * r;
    for (int k = 0; k < 3; ++k) {
      slope[k] += a[k] * r;
      col2[k] += a[k] * a[k];
    }
  };
  for (const mb::Observation& o : obs) {
    const double t = std::max(o.kernel.flops * m.tau_flop,
                              o.kernel.bytes * m.tau_mem);
    row({o.kernel.flops / o.joules, o.kernel.bytes / o.joules, t / o.joules},
        1.0);
    const double tp = t * o.watts;
    row({o.kernel.flops / tp, o.kernel.bytes / tp, t / tp}, 1.0);
  }
  if (opt.idle_watts_hint > 0.0)
    row({0.0, 0.0, opt.idle_weight / opt.idle_watts_hint}, opt.idle_weight);
  Kkt kkt{};
  for (int k = 0; k < 3; ++k) {
    kkt.cosine[k] = slope[k] / std::sqrt(col2[k] * rss);
    kkt.on_bound[k] = x[k] <= std::numeric_limits<double>::min();
  }
  return kkt;
}

TEST(UncappedClosedForm, MeetsTheKktConditions) {
  archline::stats::Rng rng(2301);
  for (int trial = 0; trial < 24; ++trial) {
    const UncappedSweep s = random_uncapped_sweep(rng);
    ft::FitOptions opt;
    opt.kind = ft::ModelKind::Uncapped;
    opt.idle_watts_hint = s.idle_watts;
    const ft::FitResult r = ft::fit_observations(s.obs, opt);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.rss, uncapped_objective(r.machine, s.obs, opt)) << trial;
    const Kkt kkt = uncapped_kkt(r.machine, s.obs, opt);
    for (int k = 0; k < 3; ++k) {
      if (kkt.on_bound[k])
        EXPECT_GT(kkt.cosine[k], -1e-9) << "trial " << trial << ", x" << k;
      else
        EXPECT_LT(std::abs(kkt.cosine[k]), 1e-9)
            << "trial " << trial << ", x" << k;
    }
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
  EXPECT_GT(ft::ObservationColumns(obs).sum_squared_residuals(off), r.rss);
  off = r.machine;
  off.eps_mem = 1e-12;
  EXPECT_GT(ft::ObservationColumns(obs).sum_squared_residuals(off), r.rss);
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
  EXPECT_GT(ft::ObservationColumns(obs).sum_squared_residuals(off), r.rss);
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
            R"("rss":4.930380657631324e-31,"r_squared_perf":1,)"
            R"("converged":true})");
}

}  // namespace
