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
// its miss counts and a held-out error scorecard.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "fit/model_fit.hpp"
#include "microbench/parallel.hpp"
#include "platforms/platform_db.hpp"
#include "sim/factory.hpp"

namespace {

namespace fit = archline::fit;
namespace mb = archline::microbench;
namespace pl = archline::platforms;

mb::SuiteData campaign(const pl::PlatformSpec& spec, std::uint64_t seed) {
  archline::stats::Rng rng(mb::campaign_seed(seed, spec.name));
  return mb::run_suite(archline::sim::make_machine(spec), mb::SuiteOptions{},
                       rng);
}

/// Certificate failures and throws per platform over suite seeds
/// [begin, end), with the first few campaigns named.
struct Sweep {
  std::map<std::string, int> failures;
  std::map<std::string, int> throws;
  std::string detail;

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
    }
  }
  return s;
}

TEST(FitCertificate, SuiteSeeds0To19) {
  const Sweep s = certify(0, 20);
  EXPECT_TRUE(s.failures.empty() && s.throws.empty()) << s.report();
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

TEST(FitCertificateSweep, SuiteSeeds0To199) {
  const Sweep s = certify(0, 200);
  EXPECT_TRUE(s.failures.empty() && s.throws.empty()) << s.report();
}

}  // namespace
