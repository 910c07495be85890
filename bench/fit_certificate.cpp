// Report-only probe: does the capped fit land on its optimum?
//
// The simulator knows each platform's true constants, so a fit can be
// checked without a global optimiser. Take the truth, substitute the
// fit's own measured tau_flop and tau_mem, and score it with the fit's
// own objective (fit::suite_objective). If the truth scores lower than
// what fit_machine returned, the search missed the optimum (a
// certificate failure). tests/test_fit_certificate.cpp asserts there are
// none. Over suite seeds 0-199 x the 12 Table I platforms, the probe
// prints per platform:
//   * certificate failures;
//   * flat-branch wins (the cap binds on no DRAM/SP kernel), and how
//     many of those score below the truth;
//   * DRAM misses: Table1Row::worst_identifiable_error() >= 25 %;
//   * L1, L2 and DP misses of >= 25 % in eps and in tau, out of the
//     campaigns that fitted that level;
//   * campaigns whose fit threw.
// Then a held-out scorecard: each campaign's capped and uncapped fits
// predict a fresh DRAM/SP sweep, drawn with another suite seed at the
// intensities 2^(k+1/4), k = -3..9: off the fitting suite's own grid
// (two points per octave, 2^(j/2)), so the sweep is held out in
// intensity as well as in noise. Per campaign the worst relative
// error over that sweep is kept, for time, energy and power; per
// platform the probe prints the median and p90 of those worst errors,
// and a two-sample K-S test of the capped worst energy errors against
// the uncapped ones.
// It always exits 0: the counts are a measurement; the test is the gate.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "bench/common.hpp"
#include "experiments/exp_table1.hpp"
#include "fit/model_fit.hpp"
#include "microbench/parallel.hpp"
#include "platforms/platform_db.hpp"
#include "report/table.hpp"
#include "sim/factory.hpp"
#include "stats/descriptive.hpp"
#include "stats/ks_test.hpp"

namespace {

using namespace archline;

constexpr std::uint64_t kSeeds = 200;
constexpr double kMiss = 0.25;
/// The held-out sweep of suite seed s is drawn with suite seed
/// s + kHeldOutSeed, far from the fitted seeds 0-199.
constexpr std::uint64_t kHeldOutSeed = 1000000;

/// Misses of one fitted cost pair against its published point.
struct PairCount {
  int fitted = 0;
  int eps = 0;
  int tau = 0;

  void add(const std::optional<platforms::EnergyPoint>& truth, double tau_fit,
           double eps_fit) {
    ++fitted;
    if (std::abs(eps_fit / truth->energy_per_op - 1.0) >= kMiss) ++eps;
    if (std::abs(tau_fit * truth->throughput - 1.0) >= kMiss) ++tau;
  }
  [[nodiscard]] std::string text() const {
    if (fitted == 0) return "-";
    return std::to_string(eps) + "/" + std::to_string(tau) + " of " +
           std::to_string(fitted);
  }
};

/// Worst relative errors of one model over held-out sweeps, one entry
/// per campaign.
struct HeldOut {
  std::vector<double> time, energy, power;

  void add(const core::MachineParams& m,
           std::span<const microbench::Observation> obs) {
    const fit::PredictionErrors e = fit::prediction_errors(m, obs);
    const auto worst = [](const std::vector<double>& xs) {
      double w = 0.0;
      for (const double x : xs) w = std::max(w, std::abs(x));
      return w;
    };
    time.push_back(worst(e.time));
    energy.push_back(worst(e.energy));
    power.push_back(worst(e.power));
  }
};

struct PlatformCount {
  int campaigns = 0;
  int certificate = 0;
  int dram = 0;
  int throws = 0;
  int flat = 0;
  int flat_below_truth = 0;
  PairCount l1, l2, dp;
  HeldOut capped, uncapped;
};

/// The held-out sweep's intensities: 2^(k+1/4), k = -3..9.
std::vector<double> held_out_intensities() {
  std::vector<double> grid;
  for (int k = -3; k <= 9; ++k) grid.push_back(std::exp2(k + 0.25));
  return grid;
}

/// "median/p90" of `xs` in percent.
std::string median_p90(const std::vector<double>& xs) {
  if (xs.empty()) return "-";
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.1f/%.1f", 100.0 * stats::median(xs),
                100.0 * stats::quantile(xs, 0.9));
  return buf;
}

}  // namespace

int main() {
  bench::banner(
      "Fit certificate sweep (report only)",
      "Suite seeds 0-199 x 12 platforms. A certificate failure is a "
      "campaign where the truth,\nwith the fit's measured taus, scores "
      "lower than the fit under the fit's own objective.\nMisses are "
      "relative errors >= 25 % (eps/tau, out of the campaigns fitted).");

  const auto& specs = platforms::all_platforms();
  std::vector<PlatformCount> counts(specs.size());
  microbench::SuiteOptions held_out_options;
  held_out_options.intensities = held_out_intensities();
  held_out_options.include_double = false;
  held_out_options.include_caches = false;
  held_out_options.include_random = false;
  held_out_options.include_idle = false;
  fit::FitOptions uncapped_options;
  uncapped_options.kind = fit::ModelKind::Uncapped;
  double worst_self_check = 0.0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const platforms::PlatformSpec& spec = specs[p];
      PlatformCount& c = counts[p];
      ++c.campaigns;
      const sim::SimMachine machine = sim::make_machine(spec);
      stats::Rng rng(microbench::campaign_seed(seed, spec.name));
      const microbench::SuiteData data =
          microbench::run_suite(machine, microbench::SuiteOptions{}, rng);
      experiments::Table1Row row;
      row.spec = &spec;
      fit::FitResult uncapped;
      try {
        row.refit = fit::fit_machine(data);
        uncapped = fit::fit_machine(data, uncapped_options);
      } catch (const std::exception& e) {
        ++c.throws;
        std::printf("throw: %s, suite seed %llu: %s\n", spec.name.c_str(),
                    static_cast<unsigned long long>(seed), e.what());
        continue;
      }
      const fit::FitResult& r = row.refit;
      // The probe's objective must be the fit's: at the fitted machine
      // it reproduces FitResult::rss.
      worst_self_check = std::max(
          worst_self_check,
          std::abs(fit::suite_objective(r.machine, data) / r.rss - 1.0));

      core::MachineParams truth = spec.machine();
      const fit::MeasuredThroughput taus =
          fit::measure_throughput(data.dram_sp);
      truth.tau_flop = taus.tau_flop;
      truth.tau_mem = taus.tau_mem;
      const double truth_score = fit::suite_objective(truth, data);
      if (truth_score < r.rss) ++c.certificate;
      if (r.flat_cap) {
        ++c.flat;
        if (r.rss < truth_score) ++c.flat_below_truth;
      }
      if (row.worst_identifiable_error() >= kMiss) ++c.dram;
      if (r.l1) c.l1.add(spec.mem_l1, r.l1->tau_byte, r.l1->eps_byte);
      if (r.l2) c.l2.add(spec.mem_l2, r.l2->tau_byte, r.l2->eps_byte);
      if (r.dp) c.dp.add(spec.flop_dp, r.dp->tau_flop, r.dp->eps_flop);

      stats::Rng held_out_rng(
          microbench::campaign_seed(seed + kHeldOutSeed, spec.name));
      const microbench::SuiteData held_out =
          microbench::run_suite(machine, held_out_options, held_out_rng);
      c.capped.add(r.machine, held_out.dram_sp);
      c.uncapped.add(uncapped.machine, held_out.dram_sp);
    }
  }

  report::Table t({"Platform", "campaigns", "certificate", "flat (< truth)",
                   "DRAM miss", "L1 eps/tau", "L2 eps/tau", "DP eps/tau",
                   "throws"});
  const auto flat_text = [](const PlatformCount& c) {
    return std::to_string(c.flat) + " (" + std::to_string(c.flat_below_truth) +
           ")";
  };
  PlatformCount total;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const PlatformCount& c = counts[p];
    t.add_row({specs[p].name, std::to_string(c.campaigns),
               std::to_string(c.certificate), flat_text(c),
               std::to_string(c.dram),
               c.l1.text(), c.l2.text(), c.dp.text(),
               std::to_string(c.throws)});
    total.campaigns += c.campaigns;
    total.certificate += c.certificate;
    total.dram += c.dram;
    total.flat += c.flat;
    total.flat_below_truth += c.flat_below_truth;
    total.throws += c.throws;
    for (auto [sum, part] : {std::pair{&total.l1, &c.l1},
                             std::pair{&total.l2, &c.l2},
                             std::pair{&total.dp, &c.dp}}) {
      sum->fitted += part->fitted;
      sum->eps += part->eps;
      sum->tau += part->tau;
    }
  }
  t.add_row({"total", std::to_string(total.campaigns),
             std::to_string(total.certificate), flat_text(total),
             std::to_string(total.dram),
             total.l1.text(), total.l2.text(), total.dp.text(),
             std::to_string(total.throws)});
  std::printf("\n%s\n", t.to_text().c_str());
  std::printf("objective self-check: worst |probe / FitResult::rss - 1| = "
              "%.3g\n",
              worst_self_check);

  report::Table h({"Platform", "energy capped", "energy uncapped",
                   "time capped", "time uncapped", "power capped",
                   "power uncapped", "K-S energy D (p)"});
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const PlatformCount& c = counts[p];
    std::string ks = "-";
    if (!c.capped.energy.empty()) {
      const stats::KsResult k =
          stats::ks_two_sample(c.capped.energy, c.uncapped.energy);
      char buf[48];
      std::snprintf(buf, sizeof buf, "%.2f (%.2g)", k.statistic, k.p_value);
      ks = buf;
    }
    h.add_row({specs[p].name, median_p90(c.capped.energy),
               median_p90(c.uncapped.energy), median_p90(c.capped.time),
               median_p90(c.uncapped.time), median_p90(c.capped.power),
               median_p90(c.uncapped.power), ks});
  }
  std::printf("\nHeld-out scorecard: worst relative error per campaign over "
              "a fresh DRAM/SP sweep\nat 2^(k+1/4), k = -3..9, median/p90 "
              "over campaigns, in percent.\n\n%s\n",
              h.to_text().c_str());
  return 0;
}
