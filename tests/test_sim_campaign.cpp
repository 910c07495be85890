// sim::Campaign — deterministic virtual-time traffic campaigns with SLO
// assertions. These cases scale the named scenarios down so the whole
// suite stays in the tier-1 fast lane; the full 10k-connection /
// million-request acceptance campaign lives in
// test_sim_campaign_million.cpp under the `campaign` ctest label.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/arrivals.hpp"
#include "sim/campaign.hpp"
#include "stats/rng.hpp"
#include "support/slo.hpp"

namespace {

using archline::sim::ArrivalSpec;
using archline::sim::Behavior;
using archline::sim::Campaign;
using archline::sim::CampaignOptions;
using archline::sim::CampaignReport;
using archline::sim::SloSpec;
using archline::sim::assert_slo;
using archline::sim::campaign_scenario;
using archline::sim::campaign_scenario_names;
using archline::sim::next_arrival;

CampaignReport run_campaign(const CampaignOptions& options) {
  Campaign campaign(options);
  return campaign.run();
}

/// Every report, whatever the traffic, must satisfy the bookkeeping
/// identities the harness is built around.
void expect_identities(const CampaignReport& r) {
  EXPECT_EQ(r.requests_framed, r.replies_delivered + r.replies_abandoned +
                                   r.dropped_replies);
  std::uint64_t errors = 0;
  for (const auto& [code, n] : r.errors_by_code) errors += n;
  EXPECT_EQ(r.requests_framed, r.ok + errors);
  // Every framed line is probed exactly once, by its shard, before
  // anything is queued or shed.
  EXPECT_EQ(r.cache_hits + r.cache_misses, r.requests_framed);
  const auto code_count = [&](const char* code) -> std::uint64_t {
    const auto it = r.errors_by_code.find(code);
    return it == r.errors_by_code.end() ? 0 : it->second;
  };
  EXPECT_EQ(code_count("overloaded"), r.overloaded);
  EXPECT_EQ(code_count("deadline_exceeded"), r.deadline_exceeded);
  EXPECT_EQ(r.connections_opened,
            r.closed_clean + r.reset_by_client + r.idle_closed);
  EXPECT_TRUE(r.connections_accounted);
  EXPECT_TRUE(r.drain_clean);
  EXPECT_EQ(r.dropped_replies, 0u);
}

// ---- arrival processes ----------------------------------------------------

TEST(Arrivals, RateShapesMatchTheirDefinitions) {
  const ArrivalSpec poisson = ArrivalSpec::poisson(12.0);
  EXPECT_DOUBLE_EQ(poisson.rate_at(0.0), 12.0);
  EXPECT_DOUBLE_EQ(poisson.rate_at(5.3), 12.0);

  const ArrivalSpec onoff = ArrivalSpec::on_off(40.0, 0.1, 0.4);
  EXPECT_DOUBLE_EQ(onoff.rate_at(0.05), 40.0);   // in the burst
  EXPECT_DOUBLE_EQ(onoff.rate_at(0.25), 0.0);    // silence
  EXPECT_DOUBLE_EQ(onoff.rate_at(0.55), 40.0);   // next cycle
  EXPECT_DOUBLE_EQ(onoff.rate_at(-0.48), 40.0);  // negative t wraps

  const ArrivalSpec diurnal = ArrivalSpec::diurnal(2.0, 20.0, 10.0);
  EXPECT_DOUBLE_EQ(diurnal.rate_at(0.0), 2.0);    // trough
  EXPECT_DOUBLE_EQ(diurnal.rate_at(5.0), 20.0);   // crest
  EXPECT_NEAR(diurnal.rate_at(2.5), 11.0, 1e-9);  // halfway

  EXPECT_THROW(ArrivalSpec::poisson(0.0).validate(), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::on_off(10.0, 0.0, 0.5).validate(),
               std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::diurnal(30.0, 20.0, 10.0).validate(),
               std::invalid_argument);
}

TEST(Arrivals, ThinningMatchesExpectedCounts) {
  // Long-run arrival counts must track the integrated rate for every
  // process family (law of large numbers; generous tolerance).
  const double horizon = 2000.0;
  const struct {
    ArrivalSpec spec;
    double expected_rate;
  } cases[] = {
      {ArrivalSpec::poisson(5.0), 5.0},
      {ArrivalSpec::on_off(40.0, 0.1, 0.4), 8.0},
      {ArrivalSpec::diurnal(2.0, 20.0, 10.0), 11.0},
  };
  for (const auto& c : cases) {
    archline::stats::Rng rng(99, 7);
    double t = 0.0;
    std::uint64_t n = 0;
    for (;;) {
      t = next_arrival(c.spec, t, rng);
      if (t >= horizon) break;
      ++n;
    }
    const double rate = static_cast<double>(n) / horizon;
    EXPECT_NEAR(rate, c.expected_rate, 0.05 * c.expected_rate)
        << "kind=" << static_cast<int>(c.spec.kind);
  }
}

// ---- campaign scenarios ---------------------------------------------------

TEST(Campaign, PoissonSteadyMeetsSlo) {
  CampaignOptions options = campaign_scenario("steady");
  options.connections = 300;
  options.virtual_seconds = 5.0;
  options.seed = 11;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_GT(r.requests_framed, 10'000u);
  EXPECT_EQ(r.overloaded, 0u);
  EXPECT_EQ(r.deadline_exceeded, 0u);

  SloSpec slo;
  slo.max_total_p99_ns = 100'000;  // an uncontended box answers in µs
  slo.max_endpoint_p99_ns["predict"] = 50'000;
  slo.min_cache_hit_rate = 0.95;
  EXPECT_EQ(assert_slo(r, slo), std::vector<std::string>{});
}

TEST(Campaign, ReplayIsByteIdentical) {
  CampaignOptions options = campaign_scenario("adversarial");
  options.connections = 250;
  options.virtual_seconds = 4.0;
  options.seed = 77;
  const CampaignReport a = run_campaign(options);
  const CampaignReport b = run_campaign(options);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_FALSE(a.to_json().empty());
}

TEST(Campaign, SeedChangesTheTraffic) {
  CampaignOptions options = campaign_scenario("steady");
  options.connections = 100;
  options.virtual_seconds = 3.0;
  options.seed = 1;
  const CampaignReport a = run_campaign(options);
  options.seed = 2;
  const CampaignReport b = run_campaign(options);
  EXPECT_NE(a, b);
  EXPECT_NE(a.requests_sent, b.requests_sent);
}

TEST(Campaign, BurstOnOffShedsOverloadWithoutLosingReplies) {
  // Keep the preset's full 2000-connection fleet — shedding needs the
  // aggregate burst rate — and shorten the horizon instead. Half the
  // traffic is refit: with no observe traffic each one fails fast
  // ("fit_failed"), but it is still a Heavy miss that queues for the
  // one Heavy worker and holds it for error_reply_ns (20 us here).
  CampaignOptions options = campaign_scenario("burst");
  options.virtual_seconds = 3.0;
  options.seed = 5;
  options.workload = {};
  options.workload.predict = 0.5;
  options.workload.refit = 0.5;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  // A burst sends 80k refits/s at a worker that answers ~48k/s: the
  // Heavy queue fills to its bound, and only then sheds — with an
  // "overloaded" reply, not a lost one.
  EXPECT_GT(r.overloaded, 0u);
  EXPECT_EQ(r.max_heavy_depth, options.queue_capacity);
  EXPECT_EQ(r.errors_by_code.at("overloaded"), r.overloaded);

  SloSpec slo;
  slo.max_overloaded_frac = 0.5;
  EXPECT_EQ(assert_slo(r, slo), std::vector<std::string>{});
}

TEST(Campaign, LightOverloadIsNeverShed) {
  // The tightest Heavy admission there is, and Light traffic that
  // outruns its one shard many times over: Light requests wait in the
  // shard's FIFO, which has no capacity and no deadline.
  CampaignOptions options;
  options.seed = 47;
  options.connections = 200;
  options.virtual_seconds = 2.0;
  options.arrivals = ArrivalSpec::on_off(100.0, 0.1, 0.4);
  options.shards = 1;
  options.queue_capacity = 1;
  options.request_deadline_ms = 1;
  options.service.cached_hit_ns = 200'000;
  options.service.light_miss_ns = 400'000;
  options.workload.predict = 0.8;
  options.workload.params = 0.2;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_GT(r.max_light_depth, 1'000u);  // it did back up
  EXPECT_EQ(r.overloaded, 0u);
  EXPECT_EQ(r.deadline_exceeded, 0u);
  EXPECT_EQ(r.ok, r.requests_framed);
}

TEST(Campaign, LightReplyNeverOvertakesAnEarlierHeavyReply) {
  // One pipelined connection: observes let each refit succeed, and a
  // successful refit holds the Heavy worker for 50 ms, while a predict
  // costs its shard a microsecond. A predict framed behind a running
  // refit is answered at once but must wait for the refit's reply.
  CampaignOptions options;
  options.seed = 53;
  options.connections = 1;
  options.virtual_seconds = 2.0;
  options.arrivals = ArrivalSpec::poisson(200.0);
  options.service.heavy_miss_ns = 50'000'000;
  options.workload.predict = 0.6;
  options.workload.observe = 0.3;
  options.workload.refit = 0.1;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  ASSERT_GT(r.endpoints.at("refit").count, 0u);
  EXPECT_GE(r.endpoints.at("refit").max_ns, options.service.heavy_miss_ns);
  // Out-of-order delivery would answer every predict within a few
  // microseconds.
  EXPECT_GT(r.endpoints.at("predict").max_ns,
            options.service.heavy_miss_ns / 2);
}

TEST(Campaign, DiurnalRampStaysClean) {
  CampaignOptions options = campaign_scenario("diurnal");
  options.connections = 200;
  options.virtual_seconds = 10.0;
  options.seed = 9;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_GT(r.requests_framed, 0u);
  EXPECT_EQ(r.overloaded, 0u);
}

// The acceptance SLO case: a mixed slow-loris + synchronized-burst
// adversary (plus partial-frame resets, idle campers, malformed JSON,
// and heavy refit traffic) against a deadline-bounded server — and the
// SLO still holds, *because* shedding bounds the tail.
TEST(Campaign, MixedSlowLorisBurstAdversaryHoldsSlo) {
  // The full 2000-connection fleet at a shorter horizon: saturation
  // (and thus shedding) requires the preset's aggregate burst rate.
  CampaignOptions options = campaign_scenario("adversarial");
  options.virtual_seconds = 4.0;
  options.seed = 21;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_GT(r.reset_by_client, 0u);
  EXPECT_GT(r.idle_closed, 0u);

  SloSpec slo;
  // Light requests are never shed, so the tail is the backlog one burst
  // builds on a shard. Of the ~667 connections per shard, the 70 %
  // pipelined ones send at 40/s in the 0.1 s ON phase (~18.7k/s) and
  // the drippers frame ~1.5k/s more, against ~7.2k/s of service (one
  // request costs ~139 us: 50 us hits, 150 us misses at a ~18 % hit
  // rate, x1.05 mean jitter). The ON phase leaves ~1300 requests
  // queued, ~180 ms of work; a predict behind a queued refit waits a
  // few 2.2 ms refits more (the Heavy queue peaks at 6 here). The OFF
  // phase (0.4 s) drains it all, so nothing carries into the next
  // burst. 200 ms bounds the tail (seed 21 reads ~154 ms).
  slo.max_endpoint_p99_ns["predict"] = 200'000'000;
  slo.max_endpoint_p99_ns["params"] = 200'000'000;
  slo.require_zero_dropped = true;
  slo.require_drain_clean = true;
  slo.require_connections_accounted = true;
  EXPECT_EQ(assert_slo(r, slo), std::vector<std::string>{});
}

TEST(Campaign, PartialResetAbandonsInFlightRepliesAccountably) {
  CampaignOptions options;
  options.seed = 13;
  options.connections = 200;
  options.virtual_seconds = 5.0;
  options.behaviors.pipelined = 0.0;
  options.behaviors.partial_reset = 1.0;
  options.partial_reset_after_s = 0.005;
  options.arrivals = ArrivalSpec::poisson(50.0);
  // Slow service so resets land while replies are still queued.
  options.service.cached_hit_ns = 2'000'000;
  options.service.light_miss_ns = 4'000'000;
  options.shards = 2;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_EQ(r.reset_by_client, r.connections_opened);
  EXPECT_EQ(r.closed_clean, 0u);
  EXPECT_GT(r.replies_abandoned, 0u);
  // Partial frames transmit but never complete.
  EXPECT_GT(r.requests_sent, r.requests_framed);
  EXPECT_EQ(r.requests_sent - r.requests_framed, r.connections_opened);
}

TEST(Campaign, IdleCampersAreReaped) {
  CampaignOptions options;
  options.seed = 17;
  options.connections = 150;
  options.virtual_seconds = 6.0;
  options.behaviors.pipelined = 0.0;
  options.behaviors.idle_camper = 1.0;
  options.idle_timeout_ms = 1000;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  // One request each, then silence: every camper must be idle-closed
  // long before shutdown, and each got its single reply first.
  EXPECT_EQ(r.idle_closed, r.connections_opened);
  EXPECT_EQ(r.closed_clean, 0u);
  EXPECT_EQ(r.requests_framed, r.connections_opened);
  EXPECT_EQ(r.replies_delivered, r.requests_framed);
}

TEST(Campaign, AdmissionCapRefusesExcessConnections) {
  CampaignOptions options;
  options.seed = 23;
  options.connections = 300;
  options.max_connections = 100;
  options.virtual_seconds = 3.0;
  options.open_ramp_s = 0.5;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_EQ(r.connections_opened, 100u);
  EXPECT_EQ(r.connections_refused, 200u);
}

TEST(Campaign, DeadlineBoundsTheExecutedTail) {
  // Refit-only traffic with no observe traffic: every refit fails fast
  // ("fit_failed") but is still a Heavy miss, so it passes its shard at
  // no cost, queues for the one Heavy worker, and holds it for
  // error_reply_ns.
  CampaignOptions options;
  options.seed = 31;
  options.connections = 400;
  options.virtual_seconds = 5.0;
  options.arrivals = ArrivalSpec::on_off(60.0, 0.1, 0.4);
  options.request_deadline_ms = 10;
  options.queue_capacity = 4096;  // the deadline sheds, not admission
  options.shards = 2;
  options.heavy_workers = 1;
  options.workload = {};
  options.workload.refit = 1.0;
  // Each burst is ~2400 jobs x ~320us on one worker: ~0.8s of queue
  // against a 10ms deadline, so most of the burst tail must be shed.
  options.service.error_reply_ns = 300'000;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  EXPECT_GT(r.deadline_exceeded, 0u);
  EXPECT_EQ(r.overloaded, 0u);
  // A reply that executed was picked up within the deadline, so its
  // latency is at most deadline + one jittered service. (One FIFO
  // worker: no earlier reply on the connection can still be running.)
  EXPECT_LE(r.total.max_ns,
            10'000'000ull +
                static_cast<std::uint64_t>(
                    static_cast<double>(options.service.error_reply_ns) *
                    (1.0 + options.service.jitter_frac)) +
                1);
}

TEST(Campaign, ChurnRefitsInvalidateWithoutServingStale) {
  CampaignOptions options = campaign_scenario("churn");
  options.connections = 120;
  options.virtual_seconds = 4.0;
  options.seed = 37;
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  // Refit traffic must actually churn the cache generation: stale
  // entries are detected and dropped (never served — the server
  // re-executes on generation mismatch, which shows up as misses).
  EXPECT_GT(r.cache_stale, 0u);
  EXPECT_GT(r.cache_hits, 0u);
  ASSERT_NE(r.endpoints.find("refit"), r.endpoints.end());
  EXPECT_GT(r.endpoints.at("refit").count, 0u);
}

TEST(Campaign, SlowLorisDripDelaysFramingNotDelivery) {
  CampaignOptions options;
  options.seed = 41;
  options.connections = 100;
  options.virtual_seconds = 5.0;
  options.behaviors.pipelined = 0.0;
  options.behaviors.slow_loris = 1.0;
  options.slow_loris_drip_s = 0.5;
  options.arrivals = ArrivalSpec::poisson(1.0);
  const CampaignReport r = run_campaign(options);
  expect_identities(r);
  // Every dripped request that finished framing was answered; the
  // drain runs past the horizon to let in-flight drips settle.
  EXPECT_GT(r.requests_framed, 0u);
  EXPECT_EQ(r.replies_delivered + r.replies_abandoned, r.requests_framed);
  EXPECT_GE(r.drained_at_s, r.virtual_seconds);
}

TEST(Campaign, ScenarioPresetsAllValidateAndUnknownThrows) {
  for (const auto& name : campaign_scenario_names())
    EXPECT_NO_THROW(campaign_scenario(name).validate()) << name;
  EXPECT_THROW((void)campaign_scenario("nope"), std::invalid_argument);
  EXPECT_THROW(
      []() {
        CampaignOptions bad;
        bad.connections = 0;
        bad.validate();
      }(),
      std::invalid_argument);
  // Like serve::Server, the modeled server needs room for one Heavy
  // miss and one worker to run it.
  EXPECT_THROW(
      []() {
        CampaignOptions bad;
        bad.queue_capacity = 0;
        bad.validate();
      }(),
      std::invalid_argument);
  EXPECT_THROW(
      []() {
        CampaignOptions bad;
        bad.heavy_workers = 0;
        bad.validate();
      }(),
      std::invalid_argument);
}

TEST(Campaign, AssertSloListsEveryViolation) {
  CampaignOptions options = campaign_scenario("steady");
  options.connections = 50;
  options.virtual_seconds = 2.0;
  options.seed = 43;
  const CampaignReport r = run_campaign(options);
  SloSpec impossible;
  impossible.max_total_p99_ns = 1;  // nothing answers in a nanosecond
  impossible.max_endpoint_p99_ns["predict"] = 1;
  impossible.max_endpoint_p99_ns["never_requested"] = 1;
  impossible.min_cache_hit_rate = 1.1;
  const std::vector<std::string> violations = assert_slo(r, impossible);
  EXPECT_EQ(violations.size(), 4u);
  // A satisfied spec stays silent.
  EXPECT_EQ(assert_slo(r, SloSpec{}), std::vector<std::string>{});
}

TEST(Campaign, RunIsSingleShot) {
  CampaignOptions options;
  options.connections = 5;
  options.virtual_seconds = 0.5;
  Campaign campaign(options);
  (void)campaign.run();
  EXPECT_THROW(campaign.run(), std::logic_error);
}

}  // namespace
