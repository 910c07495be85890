// Metrics tests: latency-histogram quantiles pinned at bucket
// boundaries (including the clamp when rank lands beyond the last
// populated bucket — the old code invented a value one bucket past the
// histogram's range), connection lifecycle counters, and their
// rendering in the stats JSON and the human-readable summary.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace archline::serve;

// ---- LatencyHistogram -----------------------------------------------------

TEST(LatencyHistogram, EmptySnapshotReportsZero) {
  LatencyHistogram h;
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 0u);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), 0.0);
}

TEST(LatencyHistogram, QuantilesPinnedAtBucketBoundaries) {
  // All mass in bucket 10 ([2^10, 2^11) ns): q=0 is the lower edge,
  // q=1 the upper edge, q=0.5 the log-midpoint.
  LatencyHistogram::Snapshot snap;
  snap.counts[10] = 100;
  snap.total = 100;
  EXPECT_DOUBLE_EQ(snap.quantile(0.0), std::exp2(10) * 1e-9);
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), std::exp2(11) * 1e-9);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), std::exp2(10.5) * 1e-9);
}

TEST(LatencyHistogram, QuantileWalksAcrossBuckets) {
  // 50 samples in bucket 4, 50 in bucket 8: the median splits exactly
  // at bucket 4's upper edge and q=0.75 is bucket 8's log-midpoint.
  LatencyHistogram::Snapshot snap;
  snap.counts[4] = 50;
  snap.counts[8] = 50;
  snap.total = 100;
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), std::exp2(5) * 1e-9);
  EXPECT_DOUBLE_EQ(snap.quantile(0.75), std::exp2(8.5) * 1e-9);
}

TEST(LatencyHistogram, RankBeyondLastPopulatedBucketClampsToItsUpperEdge) {
  // Regression: with rank past the populated mass (total larger than
  // the bucket sum — the shape floating-point accumulation produces),
  // quantile() used to return exp2(kBuckets) ns, one bucket past the
  // histogram's own range. It must clamp to the top populated bucket's
  // upper edge instead.
  LatencyHistogram::Snapshot snap;
  snap.counts[10] = 100;
  snap.total = 200;  // rank(1.0) = 200 > 100 = walkable mass
  EXPECT_DOUBLE_EQ(snap.quantile(1.0), std::exp2(11) * 1e-9);
  EXPECT_LT(snap.quantile(1.0),
            std::exp2(LatencyHistogram::kBuckets) * 1e-9);
}

TEST(LatencyHistogram, TopBucketClampStaysInRange) {
  // Even with mass in the very top bucket, the clamp is the histogram's
  // own upper edge, never past it.
  LatencyHistogram::Snapshot snap;
  snap.counts[LatencyHistogram::kBuckets - 1] = 1;
  snap.total = 5;  // rank lands beyond the single sample
  EXPECT_DOUBLE_EQ(snap.quantile(1.0),
                   std::exp2(LatencyHistogram::kBuckets) * 1e-9);
}

TEST(LatencyHistogram, RecordPlacesSamplesInPowerOfTwoBuckets) {
  LatencyHistogram h;
  h.record(1.5e-6);   // 1500 ns -> bucket 10
  h.record(3.0e-6);   // 3000 ns -> bucket 11
  h.record(0.0);      // clamps to bucket 0
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.total, 3u);
  EXPECT_EQ(snap.counts[10], 1u);
  EXPECT_EQ(snap.counts[11], 1u);
  EXPECT_EQ(snap.counts[0], 1u);
}

// ---- Connection counters --------------------------------------------------

TEST(ServeMetrics, ConnectionLifecycleCounters) {
  Metrics m;
  m.on_connection_opened();
  m.on_connection_opened();
  m.on_connection_opened();
  m.on_connection_closed();
  m.on_connection_rejected();
  m.on_connection_idle_closed();
  m.on_deadline_exceeded();
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.connections_accepted, 3u);
  EXPECT_EQ(snap.connections_open, 2u);
  EXPECT_EQ(snap.connections_rejected, 1u);
  EXPECT_EQ(snap.connections_idle_closed, 1u);
  EXPECT_EQ(snap.deadline_exceeded, 1u);
}

TEST(ServeMetrics, StatsJsonCarriesConnectionAndDeadlineFields) {
  Metrics m;
  m.on_connection_opened();
  m.on_connection_rejected();
  m.on_deadline_exceeded();
  m.on_completed(Registry::instance().find("predict"), true, 1e-4);
  const Json stats = Json::parse(m.to_json(ShardedLruCache::Stats{}));
  const Json* conns = stats.find("connections");
  ASSERT_NE(conns, nullptr);
  EXPECT_DOUBLE_EQ(conns->number_or("open", -1), 1.0);
  EXPECT_DOUBLE_EQ(conns->number_or("accepted", -1), 1.0);
  EXPECT_DOUBLE_EQ(conns->number_or("rejected", -1), 1.0);
  EXPECT_DOUBLE_EQ(conns->number_or("idle_closed", -1), 0.0);
  EXPECT_DOUBLE_EQ(stats.number_or("deadline_exceeded", -1), 1.0);
}

TEST(ServeMetrics, SummaryMentionsConnectionsAndDeadlines) {
  Metrics m;
  m.on_connection_opened();
  m.on_deadline_exceeded();
  const std::string text = m.summary(ShardedLruCache::Stats{});
  EXPECT_NE(text.find("connections"), std::string::npos);
  EXPECT_NE(text.find("1 open, 1 accepted"), std::string::npos);
  EXPECT_NE(text.find("deadlined    1"), std::string::npos);
}

// ---- Heavy-lane and per-endpoint accounting ---------------------------------

TEST(ServeMetrics, LaneCountersStaySeparate) {
  // The Heavy queue's counters and gauges are separate from each other
  // and from completions: a Light completion touches none of them.
  Metrics m;
  m.on_rejected();
  m.on_rejected();
  m.on_deadline_exceeded();
  m.on_queue_depth(5);
  m.on_queue_depth(2);  // depth is a gauge, peak sticks at 5
  m.on_completed(Registry::instance().find("predict"), true, 1e-6);
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.rejected, 2u);
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.queue_depth, 2u);
  EXPECT_EQ(snap.queue_peak, 5u);
  EXPECT_EQ(snap.completed, 1u);
  EXPECT_EQ(snap.heavy_latency.total, 0u);
}

TEST(ServeMetrics, LatencyLandsInTheEndpointsClassHistogram) {
  Metrics m;
  const Endpoint* predict = Registry::instance().find("predict");
  const Endpoint* fit = Registry::instance().find("fit");
  ASSERT_NE(predict, nullptr);
  ASSERT_NE(fit, nullptr);
  m.on_completed(predict, true, 1e-6);  // Light
  m.on_completed(fit, true, 1e-3);      // Heavy
  m.on_completed(nullptr, false, 1e-6);  // pre-dispatch error -> Light
  const auto snap = m.snapshot();
  EXPECT_EQ(snap.heavy_latency.total, 1u);
  EXPECT_EQ(snap.latency.total, 3u);
  EXPECT_EQ(snap.by_endpoint[predict->id], 1u);
  EXPECT_EQ(snap.by_endpoint[fit->id], 1u);
  EXPECT_EQ(snap.by_endpoint[Metrics::kInvalidSlot], 1u);
  EXPECT_EQ(snap.errors, 1u);
}

TEST(ServeMetrics, StatsJsonCarriesPerLaneSections) {
  Metrics m;
  m.on_rejected();
  m.on_queue_depth(3);
  m.on_completed(Registry::instance().find("fit"), true, 2e-3);
  m.on_completed(Registry::instance().find("predict"), true, 1e-6);
  const Json stats = Json::parse(m.to_json(ShardedLruCache::Stats{}));
  const Json* lanes = stats.find("lanes");
  ASSERT_NE(lanes, nullptr);
  const Json* heavy = lanes->find("heavy");
  ASSERT_NE(heavy, nullptr);
  EXPECT_DOUBLE_EQ(heavy->number_or("rejected", -1), 1.0);
  EXPECT_DOUBLE_EQ(heavy->number_or("peak", -1), 3.0);
  const Json* heavy_latency = heavy->find("latency");
  ASSERT_NE(heavy_latency, nullptr);
  EXPECT_DOUBLE_EQ(heavy_latency->number_or("count", -1), 1.0);
  // Light requests never queue, so there is no light section.
  EXPECT_EQ(lanes->find("light"), nullptr);
  EXPECT_DOUBLE_EQ(stats.find("latency")->number_or("count", -1), 2.0);
  // by_type keys by endpoint name.
  EXPECT_DOUBLE_EQ(stats.find("by_type")->number_or("fit", -1), 1.0);
}

}  // namespace
