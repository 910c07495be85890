#pragma once
// The serve request vocabulary: every request line that serve_loadgen,
// serve_throughput, and sim::Campaign send is built here, once, so the
// three speak byte-identical traffic for the same sizes and seed. A
// campaign regression therefore reproduces against a real daemon with
// the same mix, and a loadgen run is the measured counterpart of a
// campaign on the same lines. The reply classifiers at the end are the
// one way the same callers count what came back.
//
// Every builder is a pure function of its arguments (the seeded ones
// draw from their own PCG32 stream), and pool order is part of the
// contract: callers index pools with their own RNG draws.
// tests/test_request_pools.cpp pins each pool's bytes by digest.

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace archline::sim {

/// Distinct predict requests: platforms round-robin x log-spaced
/// intensities (1/16 .. 512 flop/B over the pool), 1 GFLOP each.
[[nodiscard]] std::vector<std::string> make_predict_pool(int keys);

/// Distinct predict_batch requests. Key i carries sizes[i % n] elements
/// (the default cycle 1/8/64/256 crosses the Light/Heavy classifier
/// boundary); element e of key i sits at intensity
/// 2^(-4 + 13 (i+e) / (keys + size - 2)), so keys stay distinct and each
/// batch spans the roofline. Replies are cacheable.
[[nodiscard]] std::vector<std::string> make_batch_pool(
    int keys, std::initializer_list<int> sizes = {1, 8, 64, 256});

/// Distinct observe requests: per-platform batches of 8 measured tuples
/// synthesized from the platform's own model with ~1% lognormal noise —
/// what a real measurement stream looks like, and enough signal for the
/// server's RLS filters to converge near the Table I constants.
[[nodiscard]] std::vector<std::string> make_observe_pool(int keys,
                                                         std::uint64_t seed);

/// One params request per platform (cacheable until a re-solve
/// publishes — the read side of the live-learning loop).
[[nodiscard]] std::vector<std::string> make_params_pool();

/// policy_advise requests: every platform x three workload intensities
/// (4, 16, 64 flop/B at 4 GFLOP), objectives rotating, period = 2x the
/// workload's nominal time so every request has a feasible plan.
[[nodiscard]] std::vector<std::string> make_policy_pool();

/// One refit request per platform (a synchronous online re-solve).
[[nodiscard]] std::vector<std::string> make_refit_pool();

/// The embedded codec-like trace: for each platform one GOP of
/// IBBPBBPBBPBB frames, each a predict whose flops and intensity follow
/// the frame type, led by a policy_advise for the whole GOP's work
/// against a 2x-nominal deadline. No RNG: 13 lines per platform, replayed
/// in order.
[[nodiscard]] std::vector<std::string> make_trace_pool();

/// Distinct fit requests: 12-point noiseless sweeps generated from each
/// platform's model (a hair of seeded jitter keeps keys distinct when two
/// platforms share constants). A miss is a full Nelder-Mead + LM run.
[[nodiscard]] std::vector<std::string> make_fit_pool(int keys,
                                                     std::uint64_t seed);

/// Malformed or rejected lines, one per protocol error path: "{" and
/// "not json at all" (parse_error), an unknown type, a predict with no
/// workload, and a top-level array (bad_request), an unknown platform
/// (unknown_platform), and one line a byte past `max_request_bytes`
/// (too_large).
[[nodiscard]] std::vector<std::string> make_bad_json_pool(
    std::size_t max_request_bytes);

/// Prefixes a unique id onto a pre-dumped request line, producing a
/// distinct cache key per call: `{"type":...}` -> `{"id":N,"type":...}`.
/// Fit floods use this so every fit is a real solver run instead of a
/// cache hit.
[[nodiscard]] std::string with_unique_id(const std::string& line, long id);

/// True for a success reply: the body starts `{"ok":true`.
[[nodiscard]] bool reply_ok(std::string_view body) noexcept;

/// The "error" code of a failure reply ("bad_request", "too_large",
/// "overloaded", ...). Replies are rendered by error_body(), so the token
/// layout is fixed; anything unexpected is "unknown".
[[nodiscard]] std::string_view reply_error_code(
    std::string_view body) noexcept;

}  // namespace archline::sim
