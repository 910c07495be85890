#include "support/slo.hpp"

#include <utility>

namespace archline::sim {

std::vector<std::string> assert_slo(const CampaignReport& report,
                                    const SloSpec& slo) {
  std::vector<std::string> violations;
  const auto add = [&](std::string line) {
    violations.push_back(std::move(line));
  };
  if (slo.max_total_p99_ns > 0 && report.total.p99_ns > slo.max_total_p99_ns)
    add("total p99 " + std::to_string(report.total.p99_ns) + "ns > " +
        std::to_string(slo.max_total_p99_ns) + "ns");
  for (const auto& [name, bound] : slo.max_endpoint_p99_ns) {
    const auto it = report.endpoints.find(name);
    if (it == report.endpoints.end()) {
      add(name + ": no replies recorded (bound set but endpoint silent)");
      continue;
    }
    if (it->second.p99_ns > bound)
      add(name + " p99 " + std::to_string(it->second.p99_ns) + "ns > " +
          std::to_string(bound) + "ns");
  }
  if (slo.max_overloaded_frac >= 0.0 && report.requests_framed > 0) {
    const double frac = static_cast<double>(report.overloaded) /
                        static_cast<double>(report.requests_framed);
    if (frac > slo.max_overloaded_frac)
      add("overloaded fraction " + std::to_string(frac) + " > " +
          std::to_string(slo.max_overloaded_frac));
  }
  if (report.deadline_exceeded > slo.max_deadline_exceeded)
    add("deadline_exceeded " + std::to_string(report.deadline_exceeded) +
        " > " + std::to_string(slo.max_deadline_exceeded));
  if (slo.min_cache_hit_rate >= 0.0 &&
      report.cache_hit_rate < slo.min_cache_hit_rate)
    add("cache hit rate " + std::to_string(report.cache_hit_rate) + " < " +
        std::to_string(slo.min_cache_hit_rate));
  if (slo.require_zero_dropped && report.dropped_replies != 0)
    add("dropped replies: " + std::to_string(report.dropped_replies));
  if (slo.require_drain_clean && !report.drain_clean)
    add("drain was not clean");
  if (slo.require_connections_accounted && !report.connections_accounted)
    add("connections not fully accounted");
  return violations;
}

}  // namespace archline::sim
