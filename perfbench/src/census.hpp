#pragma once
// Per-layer timing from outside the program: each layer's public call is
// timed on the same request lines (or campaigns) a workload generated.
// Calls are nested on the same input — parse ⊂ handle_line ⊂
// handle_into ⊂ submit→done ⊂ TCP round trip — so each layer's self
// time is a subtraction. Every timed call is also kept as a span.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "vocab.hpp"

namespace perfbench {

/// One span: a timed call on one request (or campaign) id.
struct Span {
  std::string name;
  std::uint64_t request_id = 0;
  std::int64_t start_ns = 0, end_ns = 0;
  std::string parent;  ///< the enclosing layer's span name ("" = root)
};

/// Medians of the nested serve-path calls over the census lines.
struct ServeCensus {
  double parse_ns = 0, classify_ns = 0, line_bytes = 0;
  double handle_line_us = 0, handle_into_us = 0, submit_done_us = 0;
  double cache_probe_ns = 0;
  std::vector<double> handle_us_by_kind;  ///< vocab::Kind order; 0 = none
  double predict_ns_per_element = 0, policy_advise_us = 0;
  double observe_ns_per_tuple = 0, resolve_ms = 0;
};

/// Times the serve layers on `lines` (ids parallel to `ids`) on an
/// in-process Server configured from `server_flags` (archline_serverd
/// flags). `cached` mirrors a workload whose replies come from the
/// response cache: the in-process Server and the probe cache are warmed
/// with the lines first. Any kind missing from `lines` is timed on
/// `reference`.
[[nodiscard]] ServeCensus serve_census(const std::vector<vocab::Line>& lines,
                                       const std::vector<std::uint64_t>& ids,
                                       const std::vector<vocab::Line>& reference,
                                       const std::vector<std::string>& server_flags,
                                       bool cached, std::vector<Span>& spans);

/// One paper campaign: a Table I platform and its suite seed.
struct Campaign {
  std::size_t platform = 0;  ///< index into vocab::platform_names()
  std::uint64_t seed = 0;
};

struct PipelineCensus {
  double suite_ms = 0, sim_run_ns = 0, sample_ms = 0, fit_ms = 0;
  double converged_share = 0;
};

/// Times sim::make_machine's SimMachine::run, powermon::sample,
/// microbench::run_suite and fit::fit_machine on `campaigns`.
[[nodiscard]] PipelineCensus pipeline_census(const std::vector<Campaign>& campaigns,
                                             std::vector<Span>& spans);

/// Writes spans as JSON lines to `path` (best effort).
void write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
