// The acceptance campaign (ctest label: campaign): 10,000 virtual
// connections push over a million virtual requests through the real
// protocol/dispatch/cache path under a mixed slow-loris +
// synchronized-burst + partial-reset + idle-camper adversary — twice —
// and the harness must (a) stay byte-identical across the two runs,
// (b) hold the SLO, (c) account for every connection and reply, all in
// seconds of wall clock. This is ISSUE/ROADMAP item 5(b)'s bar.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "support/slo.hpp"

namespace {

using archline::sim::Campaign;
using archline::sim::CampaignOptions;
using archline::sim::CampaignReport;
using archline::sim::SloSpec;
using archline::sim::assert_slo;
using archline::sim::campaign_scenario;

TEST(CampaignMillion, MillionEventAdversaryIsReproducibleAndMeetsSlo) {
  const CampaignOptions options = [] {
    CampaignOptions o = campaign_scenario("million");
    o.seed = 20260808;
    return o;
  }();
  ASSERT_GE(options.connections, 10'000);

  Campaign first(options);
  const CampaignReport a = first.run();
  Campaign second(options);
  const CampaignReport b = second.run();

  // (a) bit-reproducible from the seed.
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.to_json(), b.to_json());

  // Scale: ≥ 10k connections, ≥ 1M virtual requests, adversary active.
  EXPECT_EQ(a.connections_opened, 10'000u);
  EXPECT_GE(a.requests_sent, 1'000'000u);
  EXPECT_GT(a.reset_by_client, 0u);
  EXPECT_GT(a.idle_closed, 0u);

  // (b) the SLO: bounded predict p99, zero dropped replies, drain-clean
  // shutdown — asserted through the same API campaigns use in CI.
  SloSpec slo;
  slo.max_endpoint_p99_ns["predict"] = 1'000'000;  // 1ms, virtual
  slo.require_zero_dropped = true;
  slo.require_drain_clean = true;
  slo.require_connections_accounted = true;
  EXPECT_EQ(assert_slo(a, slo), std::vector<std::string>{});

  // (c) accounting identities, spelled out.
  EXPECT_EQ(a.requests_framed,
            a.replies_delivered + a.replies_abandoned + a.dropped_replies);
  EXPECT_EQ(a.connections_opened,
            a.closed_clean + a.reset_by_client + a.idle_closed);
}

}  // namespace
