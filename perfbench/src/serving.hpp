#pragma once
// Per-layer metrics shared by every workload's traced run, and the
// serving measurements paper-fit borrows for the layers it never uses.

#include <cstdint>
#include <vector>

#include "census.hpp"
#include "common.hpp"

namespace perfbench {

/// Counters read through the server's "stats" endpoint.
struct ServerStats {
  double overloaded = 0, deadline_exceeded = 0;
  double light_peak = 0, heavy_peak = 0;
  double hits = 0, misses = 0, stale = 0, generation = 0;
  std::vector<double> shard_requests, shard_inline;

  /// Counter deltas (peaks stay absolute: they are lifetime maxima).
  [[nodiscard]] ServerStats since(const ServerStats& before) const;
};

/// What a traced run measured on the serve path.
struct ServeLayers {
  ServeCensus census;
  ServerStats stats;       ///< deltas over the traced phase
  double rtt_us = 0;       ///< median single-request TCP round trip
  double lag_p99_us = 0;   ///< generator lateness, traced phase
  bool cached = false;     ///< replies came from the response cache
};

/// Serve layers measured on the reference lines against a fresh server
/// (for paper-fit, which drives no server of its own).
[[nodiscard]] ServeLayers reference_serve_layers(const Context& ctx,
                                                 std::vector<Span>& spans);

/// Sum of per-layer self times along the request's nested calls, µs.
[[nodiscard]] double serve_self_time_us(const ServeLayers& s);

/// Appends every per-layer metric, in BENCHMARK.json order.
void emit_layers(RunOutput& out, const ServeLayers& s, const PipelineCensus& p,
                 double coverage, double overhead);

}  // namespace perfbench
