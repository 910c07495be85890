// Online-fit layer tests: RLS convergence against the generator and the
// offline solver, forgetting-factor tracking of a mid-stream parameter
// shift, and the OnlineStore / BackgroundResolver concurrency contract
// (run under TSan in CI: concurrent observe / published / resolve must
// be race-free by construction).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <thread>
#include <vector>

#include "fit/model_fit.hpp"
#include "fit/online/resolver.hpp"
#include "fit/online/rls.hpp"
#include "fit/online/snapshot.hpp"
#include "microbench/suite.hpp"
#include "stats/rng.hpp"

namespace {

using namespace archline;
using fit::online::OnlineFitOptions;
using fit::online::OnlineStore;
using fit::online::RlsFilter;
using fit::online::Sample;

/// Ground-truth generator machine for the streams below. Deliberately
/// NOT a Table I platform: convergence is judged against these numbers.
struct Generator {
  double tau_flop = 2e-11;   // 50 Gflop/s
  double tau_mem = 1.5e-10;  // ~6.7 GB/s
  double eps_flop = 5e-11;
  double eps_mem = 4e-10;
  double pi1 = 3.0;
};

/// One measurement tuple at the given problem size and arithmetic
/// intensity [flop/B], with multiplicative lognormal noise on the
/// measured energy. Time is exact: noise on a REGRESSOR (t multiplies
/// pi1 in the linear form) is an errors-in-variables problem that biases
/// any least-squares estimator — a property of the data, not the filter
/// — so the convergence tests keep it out of the regressors.
Sample make_sample(const Generator& g, double flops, double intensity,
                   double noise_sigma, stats::Rng& rng) {
  const double bytes = flops / intensity;
  const double t = std::max(flops * g.tau_flop, bytes * g.tau_mem);
  const double e = flops * g.eps_flop + bytes * g.eps_mem + g.pi1 * t;
  Sample s;
  s.flops = flops;
  s.bytes = bytes;
  s.seconds = t;
  s.joules = e * rng.lognormal(0.0, noise_sigma);
  return s;
}

/// A sweep over problem size AND intensity, straddling the machine
/// balance point. Both axes must vary: constant flops would leave the
/// regressors (W, Q, t) nearly collinear (W constant, t piecewise
/// proportional to Q) and no estimator could separate the constants.
std::vector<Sample> make_stream(const Generator& g, std::size_t n,
                                double noise_sigma, std::uint64_t seed) {
  static constexpr double kIntensities[] = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  static constexpr double kFlops[] = {5e7, 1e8, 2e8, 4e8};
  stats::Rng rng(seed, 11);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(make_sample(g, kFlops[(i / 8) % 4], kIntensities[i % 8],
                              noise_sigma, rng));
  return out;
}

double rel_err(double got, double want) {
  return std::abs(got - want) / std::abs(want);
}

TEST(OnlineFit, RlsConvergesToGeneratorConstants) {
  const Generator g;
  RlsFilter filter(0.998);
  for (const Sample& s : make_stream(g, 2000, 0.01, 42)) filter.observe(s);

  const auto est = filter.estimate();
  EXPECT_EQ(est.count, 2000u);
  EXPECT_GT(est.effective_count, 100.0);
  // Linear energy constants: the exactly-linear part, tight tolerance.
  EXPECT_LT(rel_err(est.eps_flop, g.eps_flop), 0.05) << est.eps_flop;
  EXPECT_LT(rel_err(est.eps_mem, g.eps_mem), 0.05) << est.eps_mem;
  EXPECT_LT(rel_err(est.pi1, g.pi1), 0.05) << est.pi1;
  // Time constants come from decayed sustained peaks over exact times.
  EXPECT_LT(rel_err(est.tau_flop, g.tau_flop), 0.10) << est.tau_flop;
  EXPECT_LT(rel_err(est.tau_mem, g.tau_mem), 0.10) << est.tau_mem;
  // Standard errors must be finite, positive, and small relative to the
  // estimates after 2000 tuples at 1% noise.
  EXPECT_GT(est.se_eps_flop, 0.0);
  EXPECT_LT(est.se_eps_flop, 0.25 * est.eps_flop);
  EXPECT_GT(est.se_pi1, 0.0);
  EXPECT_LT(est.se_pi1, 0.25 * est.pi1);
}

TEST(OnlineFit, RlsMatchesOfflineSolverOnTheSameStream) {
  const Generator g;
  const auto stream = make_stream(g, 512, 0.005, 7);

  RlsFilter filter(1.0);  // no forgetting: closest analog of batch LS
  std::vector<microbench::Observation> obs;
  obs.reserve(stream.size());
  char label[64];
  for (const Sample& s : stream) {
    filter.observe(s);
    microbench::Observation o;
    o.kernel.flops = s.flops;
    o.kernel.bytes = s.bytes;
    // Same labeling scheme as OnlineStore::resolve(): repeats of one
    // workload average, distinct workloads stay distinct kernels.
    std::snprintf(label, sizeof label, "%.9g/%.9g", s.flops, s.bytes);
    o.kernel.label = label;
    o.seconds = s.seconds;
    o.joules = s.joules;
    o.watts = s.joules / s.seconds;
    obs.push_back(o);
  }

  // Uncapped: the generator never drives power anywhere near a cap, so
  // fitting delta_pi would only add an unidentifiable degree of freedom
  // (the serve-layer e2e test covers Capped parity with resolve()).
  fit::FitOptions opt;
  opt.kind = fit::ModelKind::Uncapped;
  opt.nm_evaluations = 8000;
  opt.lm_iterations = 60;
  const fit::FitResult solved = fit::fit_observations(obs, opt);
  const auto est = filter.estimate();

  // Both estimators see the identical stream. RLS lands tight on the
  // linear constants; the solver pins the time side.
  EXPECT_LT(rel_err(est.eps_flop, g.eps_flop), 0.05);
  EXPECT_LT(rel_err(est.eps_mem, g.eps_mem), 0.05);
  EXPECT_LT(rel_err(est.pi1, g.pi1), 0.05);
  EXPECT_LT(rel_err(solved.machine.tau_flop, g.tau_flop), 0.25)
      << solved.machine.tau_flop;
  EXPECT_LT(rel_err(solved.machine.tau_mem, g.tau_mem), 0.25)
      << solved.machine.tau_mem;
  // Raw energy constants can trade off against pi1 inside the nonlinear
  // solver (the paper anchors pi1 with a measured idle hint for exactly
  // this reason), so the two estimators are compared on what they
  // PREDICT: modeled energy for each workload in the sweep must agree.
  for (double intensity : {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double w = 1e8;
    const double q = w / intensity;
    const double t = std::max(w * g.tau_flop, q * g.tau_mem);
    const double e_rls = w * est.eps_flop + q * est.eps_mem + est.pi1 * t;
    const double e_solved = w * solved.machine.eps_flop +
                            q * solved.machine.eps_mem +
                            solved.machine.pi1 * t;
    EXPECT_LT(rel_err(e_rls, e_solved), 0.20) << "intensity " << intensity;
  }
}

TEST(OnlineFit, ForgettingTracksMidStreamShift) {
  Generator before;
  Generator after;  // the "hardware drifted": costlier flops, lower idle
  after.eps_flop = 2.0 * before.eps_flop;
  after.eps_mem = 0.5 * before.eps_mem;
  after.pi1 = 0.5 * before.pi1;

  // lambda = 0.95 => effective memory ~20 tuples: 300 post-shift tuples
  // are ~15 memory constants, plenty to forget the old regime. Noise is
  // kept small because a fast filter's steady-state variance scales
  // with noise / sqrt(effective window) — the assertion targets the
  // SHIFT being forgotten, not the noise floor.
  RlsFilter filter(0.95);
  for (const Sample& s : make_stream(before, 300, 0.003, 1)) filter.observe(s);
  const auto mid = filter.estimate();
  EXPECT_LT(rel_err(mid.eps_flop, before.eps_flop), 0.10);

  for (const Sample& s : make_stream(after, 300, 0.003, 2)) filter.observe(s);
  const auto end = filter.estimate();
  EXPECT_LT(rel_err(end.eps_flop, after.eps_flop), 0.10) << end.eps_flop;
  EXPECT_LT(rel_err(end.eps_mem, after.eps_mem), 0.10) << end.eps_mem;
  EXPECT_LT(rel_err(end.pi1, after.pi1), 0.10) << end.pi1;
  // An infinite-memory filter over the same shifted stream stays stuck
  // between the regimes — the forgetting factor is what tracks.
  RlsFilter stuck(1.0);
  for (const Sample& s : make_stream(before, 300, 0.003, 1)) stuck.observe(s);
  for (const Sample& s : make_stream(after, 300, 0.003, 2)) stuck.observe(s);
  EXPECT_GT(rel_err(stuck.estimate().eps_flop, after.eps_flop),
            rel_err(end.eps_flop, after.eps_flop));
}

TEST(OnlineFit, StoreResolvePublishesBlendedSnapshot) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 2000;
  opt.lm_iterations = 30;
  OnlineStore store(opt);
  const Generator g;
  const auto stream = make_stream(g, 64, 0.005, 9);

  ASSERT_TRUE(store.find_platform("GTX Titan"));
  EXPECT_EQ(store.published("GTX Titan"), nullptr);
  EXPECT_EQ(store.resolve("GTX Titan"), nullptr)  // below the floor
      << "resolve must refuse an empty window";

  store.observe("GTX Titan", std::span<const Sample>(stream));
  EXPECT_EQ(store.observations("GTX Titan"), 64u);

  const auto snap = store.resolve("GTX Titan");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_TRUE(snap->resolved);
  EXPECT_EQ(snap->window_observations, 64u);
  EXPECT_EQ(store.generation(), 1u);
  EXPECT_EQ(store.published("GTX Titan"), snap);
  // The published machine blends RLS linear constants over the solver's.
  EXPECT_DOUBLE_EQ(snap->machine.eps_flop, snap->rls.eps_flop);
  EXPECT_DOUBLE_EQ(snap->machine.eps_mem, snap->rls.eps_mem);
  EXPECT_LT(rel_err(snap->machine.eps_flop, g.eps_flop), 0.10);
  EXPECT_LT(rel_err(snap->machine.pi1, g.pi1), 0.10);

  // Re-solving with no new tuples re-publishes (epoch 2) but the dirty
  // list no longer offers the platform to the background sweep.
  EXPECT_TRUE(store.dirty_platforms().empty());
  const auto snap2 = store.resolve("GTX Titan");
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->epoch, 2u);
  EXPECT_EQ(store.generation(), 2u);
}

TEST(OnlineFit, BackgroundResolverSweepsDirtyPlatforms) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 500;
  opt.lm_iterations = 10;
  OnlineStore store(opt);
  const Generator g;
  const auto stream = make_stream(g, 32, 0.005, 5);
  store.observe("GTX Titan", std::span<const Sample>(stream));
  store.observe("Xeon Phi", std::span<const Sample>(stream));
  ASSERT_EQ(store.dirty_platforms().size(), 2u);

  fit::online::BackgroundResolver resolver(store, 1);
  resolver.start();
  resolver.poke();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((store.generation() < 2 || resolver.sweeps() < 1) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  resolver.stop();

  EXPECT_GE(resolver.sweeps(), 1u);
  EXPECT_EQ(resolver.failed_resolves(), 0u);
  EXPECT_GE(store.generation(), 2u);
  ASSERT_NE(store.published("GTX Titan"), nullptr);
  ASSERT_NE(store.published("Xeon Phi"), nullptr);
  EXPECT_TRUE(store.dirty_platforms().empty());
  EXPECT_EQ(store.stats().platforms_fitted, 2u);
  EXPECT_GE(store.stats().last_resolve_s, 0.0);
}

// The TSan target: hammer one platform with concurrent ingest, reads,
// and re-solves while the background resolver sweeps. Assertions are
// deliberately coarse — the point is that the sanitizer sees the locking
// discipline hold under real contention.
TEST(OnlineFit, ConcurrentObserveReadResolveIsRaceFree) {
  OnlineFitOptions opt;
  opt.nm_evaluations = 300;
  opt.lm_iterations = 8;
  opt.forgetting = 0.99;
  OnlineStore store(opt);
  const Generator g;
  fit::online::BackgroundResolver resolver(store, 1);
  resolver.start();

  constexpr int kWriters = 3;
  constexpr int kBatches = 50;
  constexpr int kBatchSize = 8;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&, w] {
      for (int b = 0; b < kBatches; ++b) {
        const auto batch = make_stream(
            g, kBatchSize, 0.01,
            static_cast<std::uint64_t>(w) * 1000 + static_cast<std::uint64_t>(b));
        store.observe("GTX Titan", std::span<const Sample>(batch));
      }
    });
  threads.emplace_back([&] {  // reader
    while (!stop.load(std::memory_order_acquire)) {
      if (const auto snap = store.published("GTX Titan")) {
        EXPECT_GE(snap->epoch, 1u);
      }
      (void)store.stats();
      (void)store.dirty_platforms();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  threads.emplace_back([&] {  // synchronous forced refits
    for (int i = 0; i < 10; ++i) {
      try {
        (void)store.resolve("GTX Titan");
      } catch (const std::exception&) {
        // Degenerate early windows can make the solve throw — the
        // documented resolve() contract; the serve layer maps it to
        // fit_failed and the background resolver counts and skips it.
      }
      resolver.poke();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (std::size_t i = kWriters; i < threads.size(); ++i) threads[i].join();
  resolver.stop();

  EXPECT_EQ(store.observations("GTX Titan"),
            static_cast<std::uint64_t>(kWriters) * kBatches * kBatchSize);
  EXPECT_GE(store.generation(), 1u);
  const auto snap = store.published("GTX Titan");
  ASSERT_NE(snap, nullptr);
  EXPECT_GE(snap->epoch, 1u);
}

}  // namespace
