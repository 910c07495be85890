// Serve-layer tests for the online-fitting ingest path: the observe /
// params / refit endpoints end to end, response-cache generation
// scoping (the stale-predict regression), and the live Server with the
// background resolver streaming >= 1k tuples.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/policy.hpp"
#include "fit/model_fit.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "stats/rng.hpp"

namespace {

using namespace archline::serve;
namespace fitns = archline::fit;

// Stream generator: a machine deliberately far from the Table I
// "GTX Titan" spec, so learned replies visibly diverge from static ones.
constexpr double kTauFlop = 2e-11;
constexpr double kTauMem = 1.5e-10;
constexpr double kEpsFlop = 5e-11;
constexpr double kEpsMem = 4e-10;
constexpr double kPi1 = 3.0;

struct Tuple {
  double flops, bytes, seconds, joules;
};

// Noise rides on the measured energy only: noisy seconds would be an
// errors-in-variables regressor (see test_online_fit.cpp), which is a
// property of the data, not of the estimators under test here.
Tuple make_tuple(double flops, double intensity, double noise_sigma,
                 archline::stats::Rng& rng) {
  const double bytes = flops / intensity;
  const double t = std::max(flops * kTauFlop, bytes * kTauMem);
  const double e = flops * kEpsFlop + bytes * kEpsMem + kPi1 * t;
  return {flops, bytes, t, e * rng.lognormal(0.0, noise_sigma)};
}

/// Renders one observe request carrying `n` tuples.
std::string observe_line(const std::string& platform, std::span<const Tuple> batch) {
  std::ostringstream out;
  out.precision(17);
  out << R"({"type":"observe","platform":")" << platform
      << R"(","observations":[)";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i) out << ',';
    out << R"({"flops":)" << batch[i].flops << R"(,"bytes":)" << batch[i].bytes
        << R"(,"seconds":)" << batch[i].seconds << R"(,"joules":)"
        << batch[i].joules << '}';
  }
  out << "]}";
  return out.str();
}

std::vector<Tuple> make_batch(std::size_t n, double noise_sigma,
                              std::uint64_t seed) {
  static constexpr double kIntensities[] = {0.25, 0.5, 1, 2, 4, 8, 16, 32};
  static constexpr double kFlops[] = {5e7, 1e8, 2e8, 4e8};
  archline::stats::Rng rng(seed, 11);
  std::vector<Tuple> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(make_tuple(kFlops[(i / 8) % 4], kIntensities[i % 8],
                             noise_sigma, rng));
  return out;
}

const char* kPredict =
    R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":8})";

ServerOptions test_options() {
  ServerOptions o;
  o.threads = 2;
  o.online.lm_iterations = 30;
  return o;
}

// The stale-cache regression this PR exists to prevent: a cached predict
// reply must NOT survive a model re-solve. Before generation scoping,
// the byte-identical request would keep hitting the pre-refit entry
// forever.
TEST(ServeOnline, CachedPredictGoesStaleAfterRefit) {
  Server server(test_options());
  const std::string before = server.handle_now(kPredict);
  EXPECT_EQ(server.handle_now(kPredict), before);  // plain cache hit
  EXPECT_EQ(server.cache_stats().hits, 1u);

  const auto batch = make_batch(16, 0.0, 3);
  EXPECT_TRUE(Json::parse(server.handle_now(observe_line("GTX Titan", batch)))
                  .bool_or("ok", false));
  const std::string refit =
      server.handle_now(R"({"type":"refit","platform":"GTX Titan"})");
  ASSERT_TRUE(Json::parse(refit).bool_or("ok", false)) << refit;
  EXPECT_EQ(server.online().generation(), 1u);

  const std::string after = server.handle_now(kPredict);
  EXPECT_NE(after, before)
      << "predict still serving the pre-refit generation from cache";
  const auto cache = server.cache_stats();
  EXPECT_GE(cache.stale, 1u) << "stale entry was not detected and evicted";
  // The post-refit reply is itself cacheable under the new generation.
  EXPECT_EQ(server.handle_now(kPredict), after);

  // Un-scoped endpoints ride out the generation bump: "platforms" does
  // not depend on learned parameters, so its entry survives the refit.
  const std::string platforms = server.handle_now(R"({"type":"platforms"})");
  const auto hits = server.cache_stats().hits;
  EXPECT_EQ(server.handle_now(R"({"type":"platforms"})"), platforms);
  EXPECT_EQ(server.cache_stats().hits, hits + 1);
}

TEST(ServeOnline, ParamsLifecycleAndValidation) {
  Server server(test_options());
  const char* kParams = R"({"type":"params","platform":"GTX Titan"})";

  const Json unfitted = Json::parse(server.handle_now(kParams));
  EXPECT_TRUE(unfitted.bool_or("ok", false));
  EXPECT_FALSE(unfitted.bool_or("fitted", true));

  const auto batch = make_batch(24, 0.002, 4);
  (void)server.handle_now(observe_line("GTX Titan", batch));
  (void)server.handle_now(R"({"type":"refit","platform":"GTX Titan"})");

  const Json fitted = Json::parse(server.handle_now(kParams));
  ASSERT_TRUE(fitted.bool_or("ok", false));
  EXPECT_TRUE(fitted.bool_or("fitted", false));
  EXPECT_EQ(fitted.number_or("epoch", 0), 1.0);
  EXPECT_EQ(fitted.number_or("observations", 0), 24.0);
  const Json* machine = fitted.find("machine");
  ASSERT_NE(machine, nullptr);
  // The learned linear constants land near the generator, far from the
  // Table I spec.
  const double eps_flop = machine->number_or("eps_flop", 0.0);
  EXPECT_LT(std::abs(eps_flop - kEpsFlop) / kEpsFlop, 0.10) << eps_flop;
  const Json* rls = fitted.find("rls");
  ASSERT_NE(rls, nullptr);
  const Json* row = rls->find("eps_flop");
  ASSERT_NE(row, nullptr);
  // CI bounds must bracket the point estimate.
  EXPECT_LE(row->number_or("ci95_lo", 1e300), row->number_or("value", 0.0));
  EXPECT_GE(row->number_or("ci95_hi", -1e300), row->number_or("value", 0.0));

  // Error shapes (full matrix golden-pinned; spot-check the codes here).
  EXPECT_EQ(Json::parse(server.handle_now(
                R"({"type":"observe","platform":"Nope","observations":[]})"))
                .string_or("error", ""),
            "unknown_platform");
  EXPECT_EQ(Json::parse(server.handle_now(
                R"({"type":"refit","platform":"Arndale GPU"})"))
                .string_or("error", ""),
            "fit_failed");
}

// The e2e acceptance path: a live server streams >= 1k tuples while the
// background resolver re-solves on its own cadence; afterwards the
// published parameters agree with an offline fit of the same stream and
// cached predictions reflect the new epoch.
TEST(ServeOnline, StreamingThousandTuplesWithBackgroundResolver) {
  ServerOptions options = test_options();
  options.refit_interval_ms = 5;
  Server server(options);
  server.start();
  ASSERT_NE(server.resolver(), nullptr);

  const std::string before = server.handle_now(kPredict);

  constexpr std::size_t kBatches = 33;
  constexpr std::size_t kBatchSize = 32;  // 1056 tuples total
  std::vector<Tuple> all;
  all.reserve(kBatches * kBatchSize);
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto batch = make_batch(kBatchSize, 0.002, 100 + b);
    const Json reply =
        Json::parse(server.handle_now(observe_line("GTX Titan", batch)));
    ASSERT_TRUE(reply.bool_or("ok", false));
    EXPECT_EQ(reply.number_or("accepted", 0),
              static_cast<double>(kBatchSize));
    all.insert(all.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(server.online().observations("GTX Titan"), all.size());

  // The resolver fires on its own thread; wait for a publish and for
  // the sweep that made it to finish (a sweep publishes before it
  // counts itself).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((server.online().generation() == 0 ||
          server.resolver()->sweeps() == 0) &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_GT(server.online().generation(), 0u)
      << "background resolver never published";
  EXPECT_GT(server.resolver()->sweeps(), 0u);

  // Force one final synchronous re-solve over the complete window so the
  // published snapshot covers every streamed tuple, then compare with an
  // offline fit of the identical data and options.
  const std::string refit =
      server.handle_now(R"({"type":"refit","platform":"GTX Titan"})");
  ASSERT_TRUE(Json::parse(refit).bool_or("ok", false)) << refit;
  const auto snap = server.online().published("GTX Titan");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->window_observations, all.size());

  std::vector<archline::microbench::Observation> obs;
  obs.reserve(all.size());
  char label[64];
  for (const Tuple& t : all) {
    archline::microbench::Observation o;
    o.kernel.flops = t.flops;
    o.kernel.bytes = t.bytes;
    // Mirror OnlineStore::resolve()'s workload-shape labeling so the
    // offline fit sees the identical kernel grouping.
    std::snprintf(label, sizeof label, "%.9g/%.9g", t.flops, t.bytes);
    o.kernel.label = label;
    o.seconds = t.seconds;
    o.joules = t.joules;
    o.watts = t.joules / t.seconds;
    obs.push_back(o);
  }
  fitns::FitOptions opt;
  opt.kind = fitns::ModelKind::Capped;
  opt.lm_iterations = options.online.lm_iterations;
  const fitns::FitResult offline = fitns::fit_observations(obs, opt);
  // Same solver, same window, same budget: the time-side constants the
  // snapshot takes from the re-solve must match the offline run almost
  // exactly; the RLS-blended energy constants within a loose band.
  EXPECT_NEAR(snap->machine.tau_flop, offline.machine.tau_flop,
              1e-6 * std::abs(offline.machine.tau_flop));
  EXPECT_NEAR(snap->machine.tau_mem, offline.machine.tau_mem,
              1e-6 * std::abs(offline.machine.tau_mem));
  EXPECT_LT(std::abs(snap->machine.eps_flop - offline.machine.eps_flop) /
                offline.machine.eps_flop,
            0.30);
  // And both near the generator truth.
  EXPECT_LT(std::abs(snap->machine.eps_flop - kEpsFlop) / kEpsFlop, 0.10);
  EXPECT_LT(std::abs(snap->machine.pi1 - kPi1) / kPi1, 0.10);

  // Cached predictions reflect the new epoch.
  const std::string after = server.handle_now(kPredict);
  EXPECT_NE(after, before);
  EXPECT_EQ(server.handle_now(kPredict), after);

  // Metrics carry the online block.
  const Json stats = Json::parse(server.handle_now(R"({"type":"stats"})"));
  const Json* online = stats.find("online");
  ASSERT_NE(online, nullptr);
  EXPECT_EQ(online->number_or("observations", 0),
            static_cast<double>(all.size()));
  EXPECT_GE(online->number_or("resolves", 0), 1.0);
  EXPECT_GE(online->number_or("platforms_fitted", 0), 1.0);

  server.shutdown();
}

/// One "fit" request whose observations also seed the online window.
std::string seeded_fit_line(const std::string& platform,
                            std::span<const Tuple> batch) {
  std::ostringstream out;
  out.precision(17);
  out << R"({"type":"fit","platform":")" << platform
      << R"(","seed_online":true,"observations":[)";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i) out << ',';
    out << R"({"flops":)" << batch[i].flops << R"(,"bytes":)" << batch[i].bytes
        << R"(,"seconds":)" << batch[i].seconds << R"(,"joules":)"
        << batch[i].joules << '}';
  }
  out << "]}";
  return out.str();
}

// The seed_online satellite: a bulk calibration upload ("fit" with
// "seed_online": true) must land its tuples in the platform's online
// window, so a subsequent refit + params reflects exactly those tuples.
TEST(ServeOnline, SeededFitPrimesTheOnlineWindow) {
  Server server(test_options());
  const auto batch = make_batch(24, 0.0, 7);

  const Json fit = Json::parse(
      server.handle_now(seeded_fit_line("GTX Titan", batch)));
  ASSERT_TRUE(fit.bool_or("ok", false));
  EXPECT_EQ(fit.string_or("seeded_platform", ""), "GTX Titan");
  EXPECT_EQ(fit.number_or("seeded", 0), 24.0);
  EXPECT_EQ(server.online().observations("GTX Titan"), 24u);

  // The seeded tuples are the whole window: refit publishes a snapshot
  // fitted to them, and params reports their count and constants.
  ASSERT_TRUE(Json::parse(server.handle_now(
                  R"({"type":"refit","platform":"GTX Titan"})"))
                  .bool_or("ok", false));
  const Json params = Json::parse(
      server.handle_now(R"({"type":"params","platform":"GTX Titan"})"));
  ASSERT_TRUE(params.bool_or("ok", false));
  EXPECT_TRUE(params.bool_or("fitted", false));
  EXPECT_EQ(params.number_or("observations", 0), 24.0);
  const Json* machine = params.find("machine");
  ASSERT_NE(machine, nullptr);
  const double eps_flop = machine->number_or("eps_flop", 0.0);
  EXPECT_LT(std::abs(eps_flop - kEpsFlop) / kEpsFlop, 0.10) << eps_flop;
  // And the published machine matches the seeded fit's own solution on
  // the time constants (same solver, same data).
  const Json* fit_machine = fit.find("machine");
  ASSERT_NE(fit_machine, nullptr);
  EXPECT_NEAR(machine->number_or("tau_flop", 0.0),
              fit_machine->number_or("tau_flop", 1.0), 1e-6);

  // Seeding requests are cache-exempt: the byte-identical request must
  // re-execute (and re-seed), never replay from the response cache.
  const auto hits_before = server.cache_stats().hits;
  (void)server.handle_now(seeded_fit_line("GTX Titan", batch));
  EXPECT_EQ(server.cache_stats().hits, hits_before);
  EXPECT_EQ(server.online().observations("GTX Titan"), 48u);

  // Validation is up front: a seed against an unknown platform fails
  // before any fitting work, and a plain fit still caches.
  EXPECT_EQ(Json::parse(server.handle_now(
                R"({"type":"fit","platform":"Nope","seed_online":true,)"
                R"("observations":[{"flops":1,"bytes":1,"seconds":1,"joules":1}]})"))
                .string_or("error", ""),
            "unknown_platform");
}

// One repeated workload shape cannot separate the energy constants: the
// params reply says so and carries only finite numbers.
TEST(ServeOnline, SingleShapeStreamIsReportedUnidentified) {
  Server server(test_options());
  archline::stats::Rng rng(5, 11);
  std::vector<Tuple> batch(1000);
  for (Tuple& t : batch)
    t = {1e9, 1e9, 0.1, 5.3 * rng.lognormal(0.0, 0.01)};
  ASSERT_TRUE(Json::parse(server.handle_now(observe_line("GTX Titan", batch)))
                  .bool_or("ok", false));
  const std::string refit =
      server.handle_now(R"({"type":"refit","platform":"GTX Titan"})");
  ASSERT_TRUE(Json::parse(refit).bool_or("ok", false)) << refit;

  const std::string reply =
      server.handle_now(R"({"type":"params","platform":"GTX Titan"})");
  // Non-finite numbers render as null.
  EXPECT_EQ(reply.find("null"), std::string::npos) << reply;
  const Json params = Json::parse(reply);
  ASSERT_TRUE(params.bool_or("ok", false));
  const Json* rls = params.find("rls");
  ASSERT_NE(rls, nullptr);
  EXPECT_FALSE(rls->bool_or("identified", true)) << reply;
}

// A tuple the learner drops must stay out of the re-solve window: one
// tuple with seconds = 1e300 passes validation but would make the
// learner's sums non-finite, and while it sat in the window every later
// refit of the platform failed with "no finite flat solution". So must a
// tuple the re-solve cannot take although the learner keeps it.
TEST(ServeOnline, DroppedTupleStaysOutOfTheResolveWindow) {
  // Extremes that pass validation. Each failed every later refit while
  // it sat in the window, except seconds = 1e-300, which set tau to
  // 1e-309 (its watts and work per joule are finite).
  const std::vector<Tuple> extremes = {
      {3.3e9, 1.7e9, 1e300, 5.0},    {3.3e9, 1.7e9, 1e-300, 5.0},
      {3.3e9, 1.7e9, 5e-324, 5.0},   {3.3e9, 1.7e9, 0.05, 1e-160},
      {3.3e9, 1.7e9, 0.05, 5e-324},  {5e-324, 5e-324, 2e-313, 5e-324},
      {1e9, 1e9, 5e-324, 4e-21}};
  for (const Tuple& extreme : extremes) {
    Server server(test_options());
    const std::vector<Tuple> one = {extreme};
    ASSERT_TRUE(Json::parse(server.handle_now(observe_line("GTX Titan", one)))
                    .bool_or("ok", false));
    const auto batch = make_batch(64, 0.01, 7);
    ASSERT_TRUE(
        Json::parse(server.handle_now(observe_line("GTX Titan", batch)))
            .bool_or("ok", false));
    const std::string refit =
        server.handle_now(R"({"type":"refit","platform":"GTX Titan"})");
    const Json reply = Json::parse(refit);
    EXPECT_TRUE(reply.bool_or("ok", false))
        << "flops " << extreme.flops << ", seconds " << extreme.seconds
        << ", joules " << extreme.joules << ": " << refit;
    EXPECT_EQ(reply.number_or("window_observations", 0), 64.0) << refit;
  }
}

// policy_advise rides the same generation scoping as predict: a cached
// recommendation must not survive a refit, and the post-refit
// recommendation must be computed from the snapshot's per-point
// machines.
TEST(ServeOnline, PolicyAdviseTracksTheLearnedModel) {
  Server server(test_options());
  const char* kAdvise =
      R"({"type":"policy_advise","platform":"GTX Titan",)"
      R"("objective":"min_energy","flops":1e12,"intensity":8,"period_s":60.0})";
  const std::string before = server.handle_now(kAdvise);
  ASSERT_TRUE(Json::parse(before).bool_or("ok", false)) << before;
  EXPECT_EQ(server.handle_now(kAdvise), before);  // cache hit
  EXPECT_GE(server.cache_stats().hits, 1u);

  const auto batch = make_batch(24, 0.0, 9);
  (void)server.handle_now(observe_line("GTX Titan", batch));
  ASSERT_TRUE(Json::parse(server.handle_now(
                  R"({"type":"refit","platform":"GTX Titan"})"))
                  .bool_or("ok", false));

  const std::string after = server.handle_now(kAdvise);
  EXPECT_NE(after, before)
      << "policy_advise still serving the pre-refit generation";

  // The reply's recommended energy must equal a hand-derived evaluation
  // against the published snapshot's per-point machines — the endpoint
  // and the core engine must agree to double precision.
  const auto snap = server.online().published("GTX Titan");
  ASSERT_NE(snap, nullptr);
  const auto& spec = archline::platforms::platform("GTX Titan");
  ASSERT_EQ(snap->op_machines.size(), spec.operating_points.size());
  archline::core::PolicyRequest preq;
  preq.workload =
      archline::core::Workload::from_intensity(1e12, 8.0);
  preq.objective = archline::core::Objective::MinEnergy;
  preq.period_s = 60.0;
  const archline::core::PolicyAdvice advice = archline::core::policy_advise(
      snap->op_machines, spec.operating_points.points,
      spec.operating_points.park_watts(), preq);
  ASSERT_TRUE(advice.has_recommendation());
  const Json reply = Json::parse(after);
  const Json* rec = reply.find("recommended");
  ASSERT_NE(rec, nullptr);
  EXPECT_NEAR(rec->number_or("energy_j", 0.0),
              advice.recommended().energy_j,
              1e-9 * advice.recommended().energy_j);
  EXPECT_EQ(rec->string_or("plan", ""),
            archline::core::to_string(advice.recommended().kind));
}

// Observe keeps flowing while synchronous refits run on other threads —
// the ingest path must never block on a solve (also a TSan target).
TEST(ServeOnline, ObserveRemainsLiveUnderConcurrentRefit) {
  ServerOptions options = test_options();
  options.online.lm_iterations = 8;
  Server server(options);

  const auto seedbatch = make_batch(16, 0.002, 50);
  (void)server.handle_now(observe_line("GTX Titan", seedbatch));

  std::thread refitter([&] {
    for (int i = 0; i < 8; ++i)
      ASSERT_TRUE(Json::parse(server.handle_now(
                      R"({"type":"refit","platform":"GTX Titan"})"))
                      .bool_or("ok", false));
  });
  std::uint64_t accepted = 0;
  for (int b = 0; b < 100; ++b) {
    const auto batch = make_batch(8, 0.002, 200 + static_cast<std::uint64_t>(b));
    const Json reply =
        Json::parse(server.handle_now(observe_line("GTX Titan", batch)));
    ASSERT_TRUE(reply.bool_or("ok", false));
    accepted += static_cast<std::uint64_t>(reply.number_or("accepted", 0));
  }
  refitter.join();
  EXPECT_EQ(accepted, 800u);
  EXPECT_EQ(server.online().observations("GTX Titan"), 816u);
  EXPECT_GE(server.online().generation(), 8u);
}

}  // namespace
