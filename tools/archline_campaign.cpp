// archline_campaign — seeded virtual-time traffic campaigns against the
// serve stack, from the command line.
//
// Runs one sim::Campaign scenario (see campaign_scenario_names()) and
// prints its CampaignReport. The whole run is a pure function of
// (--scenario, --seed, --connections, --virtual-seconds): the JSON
// report is byte-identical across machines and runs. The report stamps
// only the seed and virtual_seconds, so reproducing an archived report
// takes the scenario name and any --connections override from the
// command that wrote it.
//
// Usage:
//   archline_campaign [--scenario NAME] [--seed N] [--connections N]
//                     [--virtual-seconds X] [--json] [--list]
//
// --json prints the one-line machine-readable report (the CI artifact
// format); the default is a human-readable summary. Exit status: 0 on
// a drain-clean, fully-accounted campaign, 1 otherwise, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "sim/campaign.hpp"

namespace {

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--scenario NAME] [--seed N] [--connections N]\n"
               "          [--virtual-seconds X] [--json] [--list]\n",
               argv0);
  std::exit(code);
}

void print_human(const archline::sim::CampaignReport& r) {
  std::printf("campaign: seed=%llu virtual=%.3fs drained_at=%.3fs%s\n",
              static_cast<unsigned long long>(r.seed), r.virtual_seconds,
              r.drained_at_s, r.drain_clean ? "" : "  [DRAIN NOT CLEAN]");
  std::printf(
      "conns:    opened=%llu refused=%llu closed_clean=%llu reset=%llu "
      "idle_closed=%llu%s\n",
      static_cast<unsigned long long>(r.connections_opened),
      static_cast<unsigned long long>(r.connections_refused),
      static_cast<unsigned long long>(r.closed_clean),
      static_cast<unsigned long long>(r.reset_by_client),
      static_cast<unsigned long long>(r.idle_closed),
      r.connections_accounted ? "" : "  [NOT ACCOUNTED]");
  std::printf(
      "requests: sent=%llu framed=%llu delivered=%llu abandoned=%llu "
      "dropped=%llu\n",
      static_cast<unsigned long long>(r.requests_sent),
      static_cast<unsigned long long>(r.requests_framed),
      static_cast<unsigned long long>(r.replies_delivered),
      static_cast<unsigned long long>(r.replies_abandoned),
      static_cast<unsigned long long>(r.dropped_replies));
  std::printf("outcomes: ok=%llu overloaded=%llu deadline_exceeded=%llu\n",
              static_cast<unsigned long long>(r.ok),
              static_cast<unsigned long long>(r.overloaded),
              static_cast<unsigned long long>(r.deadline_exceeded));
  for (const auto& [code, n] : r.errors_by_code)
    std::printf("  error %-20s %llu\n", code.c_str(),
                static_cast<unsigned long long>(n));
  std::printf(
      "latency:  p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus (n=%llu)\n",
      r.total.p50_ns * 1e-3, r.total.p99_ns * 1e-3, r.total.p999_ns * 1e-3,
      r.total.max_ns * 1e-3, static_cast<unsigned long long>(r.total.count));
  for (const auto& [name, s] : r.endpoints)
    std::printf("  %-14s p50=%.1fus p99=%.1fus p99.9=%.1fus (n=%llu)\n",
                name.c_str(), s.p50_ns * 1e-3, s.p99_ns * 1e-3,
                s.p999_ns * 1e-3, static_cast<unsigned long long>(s.count));
  std::printf("cache:    hits=%llu misses=%llu stale=%llu hit_rate=%.4f\n",
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.cache_misses),
              static_cast<unsigned long long>(r.cache_stale),
              r.cache_hit_rate);
  std::printf("queues:   max_light_depth=%llu max_heavy_depth=%llu\n",
              static_cast<unsigned long long>(r.max_light_depth),
              static_cast<unsigned long long>(r.max_heavy_depth));
  std::printf("events:   %llu\n",
              static_cast<unsigned long long>(r.events_processed));
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "steady";
  std::uint64_t seed = 1;
  int connections = 0;        // 0 = scenario default
  double virtual_seconds = 0; // 0 = scenario default
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--scenario") {
      scenario = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--connections") {
      connections = std::atoi(value());
      if (connections < 1) usage(argv[0], 2);
    } else if (arg == "--virtual-seconds") {
      virtual_seconds = std::atof(value());
      if (!(virtual_seconds > 0.0)) usage(argv[0], 2);
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--list") {
      for (const auto& name : archline::sim::campaign_scenario_names())
        std::printf("%s\n", name.c_str());
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else {
      std::fprintf(stderr, "%s: unknown flag %s\n", argv[0], arg.c_str());
      usage(argv[0], 2);
    }
  }

  try {
    archline::sim::CampaignOptions options =
        archline::sim::campaign_scenario(scenario);
    options.seed = seed;
    if (connections > 0) options.connections = connections;
    if (virtual_seconds > 0.0) options.virtual_seconds = virtual_seconds;

    archline::sim::Campaign campaign(options);
    const archline::sim::CampaignReport report = campaign.run();

    if (json)
      std::printf("%s\n", report.to_json().c_str());
    else
      print_human(report);
    return report.drain_clean && report.connections_accounted ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
