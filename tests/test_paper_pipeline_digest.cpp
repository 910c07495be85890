// Bit-level pin of the paper pipeline (sim -> microbench -> powermon ->
// fit) over the twelve Table I campaigns, the twelve campaigns of suite
// seed 1000, and one robust (outlier-trimming) fit per Table I platform.
//
// Every double the pipeline produces is rendered with %a (exact hex
// float) and folded into a 64-bit FNV-1a digest: one digest over the
// suite observations, one over the capped and uncapped fits. Any change
// to operation order, associativity or RNG draw order in the sampler or
// the fit objective moves a digest, so optimizations of those loops must
// leave both values exactly as they are.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <optional>

#include "fit/model_fit.hpp"
#include "microbench/parallel.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "sim/factory.hpp"

namespace {

namespace fit = archline::fit;
namespace microbench = archline::microbench;
namespace platforms = archline::platforms;

constexpr std::uint64_t kTable1Seed = 20140519;

class Fnv1a {
 public:
  void add(double v) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%a;", v);
    for (int i = 0; i < n; ++i) {
      h_ ^= static_cast<unsigned char>(buf[i]);
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(bool b) { add(b ? 1.0 : 0.0); }
  template <typename Fit>
  void add(const std::optional<Fit>& f, double Fit::*a, double Fit::*b) {
    add(f.has_value());
    if (f) {
      add((*f).*a);
      add((*f).*b);
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void add_fit(Fnv1a& h, const fit::FitResult& r) {
  const archline::core::MachineParams& m = r.machine;
  for (const double v : {m.tau_flop, m.eps_flop, m.tau_mem, m.eps_mem, m.pi1,
                         m.delta_pi, r.rss})
    h.add(v);
  h.add(r.converged);
  h.add(r.dp, &fit::FlopFit::tau_flop, &fit::FlopFit::eps_flop);
  h.add(r.l1, &fit::LevelFit::tau_byte, &fit::LevelFit::eps_byte);
  h.add(r.l2, &fit::LevelFit::tau_byte, &fit::LevelFit::eps_byte);
  h.add(r.random, &fit::RandomFit::tau_access, &fit::RandomFit::eps_access);
}

struct Digests {
  std::uint64_t suite = 0;
  std::uint64_t fit = 0;
};

/// The twelve Table I platforms' suites at `suite_seed`, each fitted
/// capped and uncapped.
Digests campaign_digests(std::uint64_t suite_seed) {
  Fnv1a suite;
  Fnv1a fits;
  fit::FitOptions uncapped;
  uncapped.kind = fit::ModelKind::Uncapped;
  for (const platforms::PlatformSpec& spec : platforms::all_platforms()) {
    archline::stats::Rng rng(microbench::campaign_seed(suite_seed, spec.name));
    const microbench::SuiteData data = microbench::run_suite(
        archline::sim::make_machine(spec), microbench::SuiteOptions{}, rng);
    for (const microbench::Observation* o : data.all()) {
      suite.add(o->seconds);
      suite.add(o->joules);
      suite.add(o->watts);
    }
    suite.add(data.idle_watts);
    add_fit(fits, fit::fit_machine(data));
    add_fit(fits, fit::fit_machine(data, uncapped));
  }
  return {suite.value(), fits.value()};
}

TEST(PaperPipelineDigest, Table1CampaignsAreBitIdentical) {
  ASSERT_EQ(platforms::all_platforms().size(), 12u);
  const Digests d = campaign_digests(kTable1Seed);
  EXPECT_EQ(d.suite, 0xe52c2e17c7059c11ULL)
      << std::hex << "suite digest 0x" << d.suite;
  EXPECT_EQ(d.fit, 0x682e25ae0136d072ULL)
      << std::hex << "fit digest 0x" << d.fit;
}

// Suite seed 1000 is one of the extra seeds the paper-fit benchmark runs.
TEST(PaperPipelineDigest, Seed1000CampaignsAreBitIdentical) {
  const Digests d = campaign_digests(1000);
  EXPECT_EQ(d.suite, 0x34d8f1d75403ee02ULL) << std::hex << "suite digest 0x" << d.suite;
  EXPECT_EQ(d.fit, 0x5b6a19c86b657824ULL) << std::hex << "fit digest 0x" << d.fit;
}

// The robust fit refits on survivor subsets, where a kernel's run of
// repeats can lose members; the observation count it kept is pinned too.
// One repeat of the fourth kernel of each sweep reads double its energy,
// a gross outlier, so every platform's robust fit refits on a subset.
TEST(PaperPipelineDigest, RobustTable1FitsAreBitIdentical) {
  Fnv1a fits;
  fit::FitOptions robust;
  robust.outlier_mad_threshold = 3.0;
  std::size_t dropped = 0;
  for (const platforms::PlatformSpec& spec : platforms::all_platforms()) {
    archline::stats::Rng rng(microbench::campaign_seed(kTable1Seed, spec.name));
    microbench::SuiteData data = microbench::run_suite(
        archline::sim::make_machine(spec), microbench::SuiteOptions{}, rng);
    microbench::Observation& outlier = data.dram_sp.at(9);
    outlier.joules *= 2.0;
    outlier.watts *= 2.0;
    const fit::FitResult r = fit::fit_machine(data, robust);
    add_fit(fits, r);
    fits.add(static_cast<double>(r.observations));
    dropped += data.dram_sp.size() - r.observations;
  }
  EXPECT_GT(dropped, 0u) << "no robust fit refitted on a subset";
  EXPECT_EQ(fits.value(), 0xc1230fd1a5329d11ULL) << std::hex << "fit digest 0x" << fits.value();
}

}  // namespace
