// Report-only probe: does the capped fit land on its optimum?
//
// The simulator knows each platform's true constants, so a fit can be
// checked without a global optimiser. Take the truth, substitute the
// fit's own measured tau_flop and tau_mem, and score it with the fit's
// own objective: the DRAM/SP residuals plus the idle and max-power
// anchors at their default weight. If the truth scores lower than what
// fit_machine returned, the search missed the optimum (a certificate
// failure). Over suite seeds 0-199 x the 12 Table I platforms, the
// probe prints per platform:
//   * certificate failures;
//   * DRAM misses: Table1Row::worst_identifiable_error() >= 25 %;
//   * L1, L2 and DP misses of >= 25 % in eps and in tau, out of the
//     campaigns that fitted that level;
//   * campaigns whose fit threw.
// It never fails: the counts are a measurement, not a gate.

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

namespace {

using namespace archline;

constexpr std::uint64_t kSeeds = 200;
constexpr double kMiss = 0.25;

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

struct PlatformCount {
  int campaigns = 0;
  int certificate = 0;
  int dram = 0;
  int throws = 0;
  PairCount l1, l2, dp;
};

/// fit_machine's capped DRAM/SP objective at `m`: the observation
/// residuals, then the idle and max-power anchors with the hints
/// fit_machine derives from the suite.
double fit_objective(const core::MachineParams& m,
                     const microbench::SuiteData& data) {
  const fit::FitOptions defaults;
  double max_watts = 0.0;
  for (const microbench::Observation& o : data.dram_sp)
    max_watts = std::max(max_watts, o.watts);
  double acc =
      fit::ObservationColumns(data.dram_sp).sum_squared_residuals(m);
  const double idle =
      defaults.idle_weight * (m.pi1 / data.idle_watts - 1.0);
  const double peak =
      defaults.max_watts_weight * (m.max_power() / max_watts - 1.0);
  acc += idle * idle;
  acc += peak * peak;
  return acc;
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
  double worst_self_check = 0.0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    for (std::size_t p = 0; p < specs.size(); ++p) {
      const platforms::PlatformSpec& spec = specs[p];
      PlatformCount& c = counts[p];
      ++c.campaigns;
      stats::Rng rng(microbench::campaign_seed(seed, spec.name));
      const microbench::SuiteData data = microbench::run_suite(
          sim::make_machine(spec), microbench::SuiteOptions{}, rng);
      experiments::Table1Row row;
      row.spec = &spec;
      try {
        row.refit = fit::fit_machine(data);
      } catch (const std::exception& e) {
        ++c.throws;
        std::printf("throw: %s, suite seed %llu: %s\n", spec.name.c_str(),
                    static_cast<unsigned long long>(seed), e.what());
        continue;
      }
      const fit::FitResult& r = row.refit;
      // The probe's objective must be the fit's: at the fitted machine
      // it reproduces FitResult::rss.
      worst_self_check =
          std::max(worst_self_check,
                   std::abs(fit_objective(r.machine, data) / r.rss - 1.0));

      core::MachineParams truth = spec.machine();
      const fit::MeasuredThroughput taus =
          fit::measure_throughput(data.dram_sp);
      truth.tau_flop = taus.tau_flop;
      truth.tau_mem = taus.tau_mem;
      if (fit_objective(truth, data) < r.rss) ++c.certificate;
      if (row.worst_identifiable_error() >= kMiss) ++c.dram;
      if (r.l1) c.l1.add(spec.mem_l1, r.l1->tau_byte, r.l1->eps_byte);
      if (r.l2) c.l2.add(spec.mem_l2, r.l2->tau_byte, r.l2->eps_byte);
      if (r.dp) c.dp.add(spec.flop_dp, r.dp->tau_flop, r.dp->eps_flop);
    }
  }

  report::Table t({"Platform", "campaigns", "certificate", "DRAM miss",
                   "L1 eps/tau", "L2 eps/tau", "DP eps/tau", "throws"});
  PlatformCount total;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const PlatformCount& c = counts[p];
    t.add_row({specs[p].name, std::to_string(c.campaigns),
               std::to_string(c.certificate), std::to_string(c.dram),
               c.l1.text(), c.l2.text(), c.dp.text(),
               std::to_string(c.throws)});
    total.campaigns += c.campaigns;
    total.certificate += c.certificate;
    total.dram += c.dram;
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
             std::to_string(total.certificate), std::to_string(total.dram),
             total.l1.text(), total.l2.text(), total.dp.text(),
             std::to_string(total.throws)});
  std::printf("\n%s\n", t.to_text().c_str());
  std::printf("objective self-check: worst |probe / FitResult::rss - 1| = "
              "%.3g\n",
              worst_self_check);
  return 0;
}
