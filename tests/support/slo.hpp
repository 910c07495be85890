#pragma once
// Service-level objectives for sim::Campaign reports: the check the
// campaign tests assert with. No shipped tool checks SLOs, so this
// lives beside the tests.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/campaign.hpp"

namespace archline::sim {

/// Service-level objectives a report must meet. Unset checks (0 /
/// negative / empty) are skipped, so a spec names exactly the bounds a
/// test pins.
struct SloSpec {
  /// Upper bound on total.p99_ns over executed replies (0 = unchecked).
  std::uint64_t max_total_p99_ns = 0;
  /// Per-endpoint p99 bounds by wire type, e.g. {"predict", 50'000}.
  std::map<std::string, std::uint64_t> max_endpoint_p99_ns;
  /// Max fraction of framed requests answered "overloaded"
  /// (< 0 = unchecked).
  double max_overloaded_frac = -1.0;
  /// Max deadline_exceeded count (UINT64_MAX = unchecked).
  std::uint64_t max_deadline_exceeded = UINT64_MAX;
  /// Minimum cache hit rate (< 0 = unchecked).
  double min_cache_hit_rate = -1.0;
  bool require_zero_dropped = true;
  bool require_drain_clean = true;
  bool require_connections_accounted = true;
};

/// Every SLO violation, one human-readable line each ("predict p99
/// 81920ns > 50000ns"); empty = the report meets the spec. Tests
/// EXPECT this empty so the failure message lists every broken bound.
[[nodiscard]] std::vector<std::string> assert_slo(const CampaignReport& report,
                                                  const SloSpec& slo);

}  // namespace archline::sim
