// The fit certificate as a test. The simulator knows each platform's
// true constants, so a capped fit can be checked without a global
// optimiser: take the truth, substitute the fit's own measured tau_flop
// and tau_mem, and score it with the fit's own objective
// (fit::suite_objective). If the truth scores lower than what
// fit_machine returned, the search missed its optimum. Over simulated
// campaigns, no fit may miss and none may throw.
//
// FitCertificate.* runs a short seed range in the tier1 lane;
// FitCertificateSweep.* runs the full suite seeds 0-199 x 12 platforms
// under the slow label. bench/fit_certificate prints the same sweep with
// its miss counts and a held-out error scorecard, which
// FitCertificate.SuiteSeeds0To19 pins over its seed range; TailSearch.*
// checks the DP and cache-level tails against a search of their own.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/roofline.hpp"
#include "fit/model_fit.hpp"
#include "microbench/parallel.hpp"
#include "platforms/platform_db.hpp"
#include "sim/factory.hpp"
#include "stats/descriptive.hpp"

namespace {

namespace co = archline::core;
namespace fit = archline::fit;
namespace mb = archline::microbench;
namespace pl = archline::platforms;

mb::SuiteData campaign(const pl::PlatformSpec& spec, std::uint64_t seed) {
  archline::stats::Rng rng(mb::campaign_seed(seed, spec.name));
  return mb::run_suite(archline::sim::make_machine(spec), mb::SuiteOptions{},
                       rng);
}

/// The held-out sweep of bench/fit_certificate: DRAM/SP only, at the
/// intensities 2^(k+1/4), k = -3..9, off the fitting grid's 2^(j/2).
mb::SuiteData held_out_sweep(const pl::PlatformSpec& spec,
                             std::uint64_t seed) {
  mb::SuiteOptions opt;
  for (int k = -3; k <= 9; ++k) opt.intensities.push_back(std::exp2(k + 0.25));
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  opt.include_idle = false;
  archline::stats::Rng rng(mb::campaign_seed(seed + 1000000, spec.name));
  return mb::run_suite(archline::sim::make_machine(spec), opt, rng);
}

/// Certificate failures and throws per platform over suite seeds
/// [begin, end), with the first few campaigns named, and each capped
/// fit's worst relative energy and time error on its held-out sweep.
struct Sweep {
  std::map<std::string, int> failures;
  std::map<std::string, int> throws;
  std::string detail;
  std::map<std::string, std::vector<double>> held_out_energy;
  std::map<std::string, std::vector<double>> held_out_time;

  [[nodiscard]] std::string report() const {
    std::string out;
    for (const auto& [name, n] : failures)
      out += name + ": " + std::to_string(n) + " certificate failures\n";
    for (const auto& [name, n] : throws)
      out += name + ": " + std::to_string(n) + " throws\n";
    return out + detail;
  }
};

Sweep certify(std::uint64_t begin, std::uint64_t end) {
  Sweep s;
  int named = 0;
  const auto name = [&](const std::string& what) {
    if (named++ < 10) s.detail += what + "\n";
  };
  for (std::uint64_t seed = begin; seed < end; ++seed) {
    for (const pl::PlatformSpec& spec : pl::all_platforms()) {
      const mb::SuiteData data = campaign(spec, seed);
      const std::string where =
          spec.name + ", suite seed " + std::to_string(seed);
      fit::FitResult r;
      try {
        r = fit::fit_machine(data);
      } catch (const std::exception& e) {
        ++s.throws[spec.name];
        name(where + " threw: " + e.what());
        continue;
      }
      archline::core::MachineParams truth = spec.machine();
      const fit::MeasuredThroughput taus =
          fit::measure_throughput(data.dram_sp);
      truth.tau_flop = taus.tau_flop;
      truth.tau_mem = taus.tau_mem;
      const double truth_score = fit::suite_objective(truth, data);
      if (truth_score < r.rss) {
        ++s.failures[spec.name];
        name(where + ": truth " + std::to_string(truth_score) + " < fit " +
             std::to_string(r.rss));
      }
      const fit::PredictionErrors e =
          fit::prediction_errors(r.machine, held_out_sweep(spec, seed).dram_sp);
      const auto worst = [](const std::vector<double>& xs) {
        double w = 0.0;
        for (const double x : xs) w = std::max(w, std::abs(x));
        return w;
      };
      s.held_out_energy[spec.name].push_back(worst(e.energy));
      s.held_out_time[spec.name].push_back(worst(e.time));
    }
  }
  return s;
}

TEST(FitCertificate, SuiteSeeds0To19) {
  const Sweep s = certify(0, 20);
  EXPECT_TRUE(s.failures.empty() && s.throws.empty()) << s.report();

  // The held-out scorecard: per platform, the median over these seeds of
  // each capped fit's worst relative energy and time error on its
  // held-out sweep, in percent, as measured when this pin was set
  // (rounded up in the fourth digit). A change may lower these; it may
  // not raise them.
  const std::map<std::string, std::pair<double, double>> pinned = {
      {"Desktop CPU", {1.869, 2.467}},
      {"NUC CPU", {2.029, 2.512}},
      {"NUC GPU", {3.987, 5.434}},
      {"APU CPU", {1.842, 2.137}},
      {"APU GPU", {1.955, 2.384}},
      {"GTX 580", {1.447, 2.217}},
      {"GTX 680", {1.587, 2.259}},
      {"GTX Titan", {1.428, 2.322}},
      {"Xeon Phi", {1.832, 2.322}},
      {"PandaBoard ES", {2.031, 2.367}},
      {"Arndale CPU", {1.696, 2.122}},
      {"Arndale GPU", {2.939, 2.922}}};
  for (const pl::PlatformSpec& spec : pl::all_platforms()) {
    const auto pin = pinned.find(spec.name);
    ASSERT_NE(pin, pinned.end()) << spec.name;
    if (s.throws.contains(spec.name)) continue;  // reported above
    EXPECT_LE(100.0 * archline::stats::median(s.held_out_energy.at(spec.name)),
              pin->second.first)
        << spec.name;
    EXPECT_LE(100.0 * archline::stats::median(s.held_out_time.at(spec.name)),
              pin->second.second)
        << spec.name;
  }
}

TEST(FitCertificate, ApuCpuSuiteSeed160Fits) {
  // Under the five-start Nelder-Mead search this campaign's capped fit
  // threw "eps_flop must be positive and finite".
  const mb::SuiteData data = campaign(pl::platform("APU CPU"), 160);
  fit::FitResult r;
  ASSERT_NO_THROW(r = fit::fit_machine(data));
  EXPECT_NO_THROW(r.machine.validate());
  EXPECT_GT(r.machine.eps_flop, 0.0);
  EXPECT_EQ(fit::suite_objective(r.machine, data), r.rss);
}

/// A tail's objective with its pair set to (tau, eps): the squared
/// relative time, energy and power residuals of core::time()/energy(),
/// summed over the tail's observations.
double tail_objective(co::MachineParams m, double co::MachineParams::*tau,
                      double co::MachineParams::*eps, double tau_value,
                      double eps_value,
                      const std::vector<mb::Observation>& obs) {
  m.*tau = tau_value;
  m.*eps = eps_value;
  double acc = 0.0;
  for (const mb::Observation& o : obs) {
    const co::Workload w = o.kernel.workload();
    const double t = co::time(m, w);
    const double e = co::energy(m, w);
    const double r[3] = {t / o.seconds - 1.0, e / o.joules - 1.0,
                         e / t / o.watts - 1.0};
    for (const double x : r) acc += x * x;
  }
  return acc;
}

/// The lowest tail objective a plain search finds: log tau on a grid of
/// 25 points, 1/6 octave apart around the fastest observed time per unit
/// of work, zoomed twice around the best point (11 points, each step a
/// fifth of the last); at every tau, eps scanned over 1e-14 .. 1e-8 in
/// quarter decades (the fitted eps of suite seeds 0-199 lie within
/// 1.4e-12 .. 7.2e-10), then golden-section search in log eps over the
/// two scan steps around the best scan point.
double searched_tail(const co::MachineParams& m,
                     double co::MachineParams::*tau,
                     double co::MachineParams::*eps, bool per_flop,
                     const std::vector<mb::Observation>& obs) {
  double fastest = std::numeric_limits<double>::infinity();
  for (const mb::Observation& o : obs)
    fastest = std::min(fastest, o.seconds / (per_flop ? o.kernel.flops
                                                      : o.kernel.bytes));
  const auto best_eps = [&](double t) {
    const auto f = [&](double log_eps) {
      return tail_objective(m, tau, eps, t, std::exp(log_eps), obs);
    };
    double lo_best = std::log(1e-14);
    double f_best = f(lo_best);
    const double step = std::log(10.0) / 4.0;
    for (double x = lo_best + step; x <= std::log(1e-8); x += step)
      if (const double v = f(x); v < f_best) {
        f_best = v;
        lo_best = x;
      }
    const double g = (std::sqrt(5.0) - 1.0) / 2.0;
    double a = lo_best - step;
    double b = lo_best + step;
    double c = b - g * (b - a);
    double d = a + g * (b - a);
    double fc = f(c);
    double fd = f(d);
    for (int i = 0; i < 30; ++i) {
      if (fc < fd) {
        b = d;
        d = c;
        fd = fc;
        c = b - g * (b - a);
        fc = f(c);
      } else {
        a = c;
        c = d;
        fc = fd;
        d = a + g * (b - a);
        fd = f(d);
      }
    }
    return std::min({f_best, fc, fd});
  };
  double center = std::log(fastest);
  double step = std::log(2.0) / 6.0;
  double best = std::numeric_limits<double>::infinity();
  for (int points : {25, 11, 11}) {
    double next = center;
    for (int j = 0; j < points; ++j) {
      const double x = center + (j - points / 2) * step;
      if (const double v = best_eps(std::exp(x)); v < best) {
        best = v;
        next = x;
      }
    }
    center = next;
    step /= 5.0;
  }
  return best;
}

TEST(TailSearch, NoTailAboveASearchOverSuiteSeeds0To4) {
  // Under the Nelder-Mead tails this failed on three capped fits: APU
  // CPU L1 at suite seed 0 and Arndale CPU L2 at seeds 3 and 4, where the
  // simplex stopped 0.1-0.8 % above what this search finds.
  std::string failures;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    for (const pl::PlatformSpec& spec : pl::all_platforms()) {
      const mb::SuiteData data = campaign(spec, seed);
      for (const fit::ModelKind kind :
           {fit::ModelKind::Capped, fit::ModelKind::Uncapped}) {
        fit::FitOptions opt;
        opt.kind = kind;
        const fit::FitResult r = fit::fit_machine(data, opt);
        co::MachineParams base = r.machine;
        if (r.flat_cap || kind == fit::ModelKind::Uncapped)
          base.delta_pi = co::kUncapped;
        struct Tail {
          const char* name;
          const std::vector<mb::Observation>& obs;
          double co::MachineParams::*tau;
          double co::MachineParams::*eps;
          bool per_flop;
          double fitted_tau, fitted_eps;
        };
        std::vector<Tail> tails;
        if (r.l1)
          tails.push_back({"L1", data.l1, &co::MachineParams::tau_mem,
                           &co::MachineParams::eps_mem, false,
                           r.l1->tau_byte, r.l1->eps_byte});
        if (r.l2)
          tails.push_back({"L2", data.l2, &co::MachineParams::tau_mem,
                           &co::MachineParams::eps_mem, false,
                           r.l2->tau_byte, r.l2->eps_byte});
        if (r.dp)
          tails.push_back({"DP", data.dram_dp, &co::MachineParams::tau_flop,
                           &co::MachineParams::eps_flop, true,
                           r.dp->tau_flop, r.dp->eps_flop});
        for (const Tail& t : tails) {
          const double fitted = tail_objective(base, t.tau, t.eps,
                                               t.fitted_tau, t.fitted_eps,
                                               t.obs);
          const double searched =
              searched_tail(base, t.tau, t.eps, t.per_flop, t.obs);
          if (fitted > searched * (1.0 + 1e-4))
            failures += spec.name + " " + t.name + ", suite seed " +
                        std::to_string(seed) +
                        (kind == fit::ModelKind::Capped ? " capped"
                                                        : " uncapped") +
                        ": fit " + std::to_string(fitted) + ", search " +
                        std::to_string(searched) + "\n";
        }
      }
    }
  }
  EXPECT_TRUE(failures.empty()) << failures;
}

TEST(FitCertificateSweep, SuiteSeeds0To199) {
  const Sweep s = certify(0, 200);
  EXPECT_TRUE(s.failures.empty() && s.throws.empty()) << s.report();
}

}  // namespace
