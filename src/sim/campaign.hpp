#pragma once
// sim::Campaign — deterministic million-event traffic campaigns with
// SLO assertions for the serve stack.
//
// A campaign is a discrete-event simulation in VIRTUAL time: tens of
// thousands of virtual connections draw request instants from pluggable
// arrival processes (sim/arrivals.hpp), shape their bytes with client
// behaviors (pipelined, slow-loris byte-drip, partial-frame-then-reset,
// idle-camper), and push real protocol lines through a real
// serve::Server on the campaign thread, under a sim::SimClock. Each
// modeled shard runs the server's own serve::ShardCore (the I/O-free
// half of the TCP shard loop), fed from the event heap:
//
//   * connections are dealt to `shards` round-robin in open order; each
//     shard owns a cache partition holding an equal slice of
//     `cache_capacity` (serve::make_shard_partitions, as TCP builds
//     them) and admits its slice of `max_connections`;
//   * a shard reads the bytes at its sockets in arrival order, one core
//     call each, and is occupied for the modeled service time of the
//     hits and Light misses the core served; a Heavy miss goes to
//     Server::enqueue at no cost to the shard, and a modeled Heavy
//     worker that frees up runs the next job with Server::run_queued.
//     The reply goes back to its shard, which takes it when next free;
//   * the core releases a connection's replies in request order and
//     reaps a connection idle past `idle_timeout_ms`.
//
// Only time is modeled, so a ten-virtual-minute million-request
// campaign costs seconds of wall clock and is bit-reproducible from its
// seed.
//
// What is real vs. modeled:
//   real     framing, in-order release, idle reaping, per-shard
//            admission (serve::ShardCore); protocol parse/dispatch,
//            response cache partitions incl. generation-scoped
//            invalidation, online-fit ingest/refit, Light/Heavy
//            classification, Heavy admission (queue capacity) and
//            queue deadlines, reply bytes.
//   modeled  the physical: arrival instants, how clients put bytes on
//            the wire (whole lines, drips, resets), shard and
//            Heavy-worker occupancy (service times per class / per
//            cache outcome, seeded jitter), an instant network.
//
// Campaigns end in a machine-checkable CampaignReport (exact per-
// endpoint latency quantiles in virtual time, loss/overload/deadline
// accounting, cache stats, queue depth peaks, drain-clean shutdown).
// The tests check reports against declared SLOs with assert_slo()
// (tests/support/slo.hpp), so "p99 <= X, zero lost replies, all
// connections accounted for" is pinned exactly and reproducibly from a
// seed. See docs/TESTING.md "Traffic campaigns".

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/arrivals.hpp"

namespace archline::sim {

/// How a virtual connection turns arrival instants into bytes on the
/// wire.
enum class Behavior : std::uint8_t {
  /// Sends each request whole the instant it is generated; keeps any
  /// number of requests in flight (open loop).
  Pipelined = 0,
  /// Drips each request's bytes over a drawn interval (half a line,
  /// then the rest), so the frame completes long after the first byte —
  /// the slow-loris shape that ties up connection slots; a drip gap
  /// longer than the idle timeout gets the connection reaped.
  SlowLoris = 1,
  /// Sends a handful of normal requests, then an un-terminated partial
  /// frame, then resets the connection — the reset reaches the shard
  /// behind the bytes sent before it, and replies with nowhere to go
  /// must be accounted, never leaked.
  PartialReset = 2,
  /// Sends one request after connecting, then camps silently — the
  /// connection-slot squatter that idle reaping exists to evict.
  IdleCamper = 3,
};

/// Relative weights (need not sum to 1) for assigning behaviors to
/// connections. Default: everyone is a well-behaved pipeliner.
struct BehaviorMix {
  double pipelined = 1.0;
  double slow_loris = 0.0;
  double partial_reset = 0.0;
  double idle_camper = 0.0;
};

/// Relative weights over the request vocabulary (sim/request_pools.hpp,
/// which serve_loadgen draws from too): predict / predict_batch /
/// observe / params / policy_advise / refit, plus a sequential
/// codec-style GOP trace (predicts with a policy_advise at each GOP
/// head) and malformed JSON lines.
struct WorkloadMix {
  double predict = 1.0;
  double predict_batch = 0.0;
  double observe = 0.0;
  double params = 0.0;
  double policy_advise = 0.0;
  double refit = 0.0;
  double trace = 0.0;
  double bad_json = 0.0;
};

/// Virtual service-time model, in virtual nanoseconds. Values are
/// costs on a shard (hits, Light misses, their error replies) or on a
/// Heavy worker (Heavy misses and their error replies), drawn per
/// executed request with multiplicative uniform jitter in
/// [1, 1 + jitter_frac). Handing a Heavy miss to the queue costs the
/// shard nothing. Defaults approximate the measured shape of the real
/// server (BENCH_serve.json): sub-µs cache hits, µs-scale light misses,
/// ms-scale heavy work.
struct ServiceModel {
  std::uint64_t cached_hit_ns = 400;
  std::uint64_t light_miss_ns = 6'000;
  std::uint64_t heavy_miss_ns = 2'000'000;
  std::uint64_t error_reply_ns = 1'500;
  double jitter_frac = 0.10;
};

struct CampaignOptions {
  std::uint64_t seed = 1;
  int connections = 1000;
  /// Arrival horizon: requests are generated in [0, virtual_seconds);
  /// the drain phase afterwards runs queued work to completion.
  double virtual_seconds = 10.0;
  /// Connection opens are spread uniformly over this ramp.
  double open_ramp_s = 1.0;

  /// Every connection shares this spec, phase included, so OnOff
  /// bursts are fleet-synchronized.
  ArrivalSpec arrivals = ArrivalSpec::poisson(10.0);
  BehaviorMix behaviors;
  WorkloadMix workload;
  ServiceModel service;

  // ---- modeled server resources (archline_serverd's flags) ----
  int shards = 4;         ///< event-loop shards, each a FIFO server
  int heavy_workers = 1;  ///< threads in the Heavy pool
  /// ServerOptions::queue_capacity: Heavy misses admitted but not yet
  /// running; past it the server answers "overloaded".
  std::size_t queue_capacity = 64;
  /// ServerOptions::request_deadline_ms: Heavy queue-wait deadline;
  /// 0 = none.
  int request_deadline_ms = 0;
  /// Admission cap, split across shards as TCP splits it; 0 = none.
  std::size_t max_connections = 0;
  int idle_timeout_ms = 0;          ///< idle reaping; 0 = off

  // ---- behavior shape knobs ----
  /// Mean time a slow-loris spends dribbling one request (drawn
  /// uniformly in [0.5, 1.5) of this per request).
  double slow_loris_drip_s = 2.0;
  /// Delay between a partial frame and the client's reset.
  double partial_reset_after_s = 0.5;

  // ---- the real serve::Server underneath ----
  /// Split evenly over the shards' partitions, as TcpListener::open
  /// splits it.
  std::size_t cache_capacity = 1 << 16;

  /// Throws std::invalid_argument on nonsensical values.
  void validate() const;
};

/// Exact latency quantiles over one reply population (virtual ns,
/// nearest-rank on the fully recorded sample — no histogram binning).
struct LatencyStats {
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  std::uint64_t p999_ns = 0;
  std::uint64_t max_ns = 0;

  friend bool operator==(const LatencyStats&, const LatencyStats&) = default;
};

/// The machine-checkable outcome of a campaign. Every counter is exact;
/// two runs with equal options produce equal reports (and equal
/// to_json() bytes) — pinned by test.
struct CampaignReport {
  std::uint64_t seed = 0;
  double virtual_seconds = 0.0;
  /// Virtual instant the last event settled (>= virtual_seconds once
  /// the drain is included).
  double drained_at_s = 0.0;

  // ---- connections ----
  std::uint64_t connections_opened = 0;
  std::uint64_t connections_refused = 0;  ///< admission cap
  std::uint64_t closed_clean = 0;
  std::uint64_t reset_by_client = 0;
  std::uint64_t idle_closed = 0;

  // ---- requests / replies ----
  std::uint64_t requests_sent = 0;    ///< transmissions begun (incl. partial)
  std::uint64_t requests_framed = 0;  ///< lines the shards' cores took
  std::uint64_t replies_delivered = 0;
  /// Replies whose connection was reset before delivery. Counted, never
  /// silently lost.
  std::uint64_t replies_abandoned = 0;
  /// Framed requests that never produced a reply — 0 or the server
  /// dropped work on the floor.
  std::uint64_t dropped_replies = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t deadline_exceeded = 0;
  /// Error replies by wire code ("bad_request", "unknown_platform",
  /// ...; includes "overloaded" / "deadline_exceeded" for one total
  /// error view, field-compatible with serve_loadgen --json).
  std::map<std::string, std::uint64_t> errors_by_code;

  // ---- latency (executed replies only; shed load is counted above) --
  LatencyStats total;
  std::map<std::string, LatencyStats> endpoints;  ///< by wire type

  // ---- server internals ----
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_stale = 0;
  double cache_hit_rate = 0.0;
  /// The deepest shard backlog: chunks that reached one shard's
  /// sockets and were not yet read, the one just arrived included
  /// (1 = never queued).
  std::uint64_t max_light_depth = 0;
  /// The server's Heavy queue peak (Metrics queue_peak).
  std::uint64_t max_heavy_depth = 0;

  // ---- shutdown ----
  /// True when the drain finished with an empty Heavy queue, no
  /// in-flight work, and zero dropped replies.
  bool drain_clean = false;
  /// opened + refused == closed_clean + reset_by_client + idle_closed
  /// + refused (every connection reached exactly one terminal state).
  bool connections_accounted = false;

  std::uint64_t events_processed = 0;

  /// One-line JSON rendering with a fixed field order — the artifact
  /// CI archives; byte-identical across same-seed runs.
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const CampaignReport&,
                         const CampaignReport&) = default;
};

/// Runs one campaign to completion (arrival horizon + drain) and
/// returns its report. Construction builds the request pools; run() may
/// be called once.
class Campaign {
 public:
  explicit Campaign(CampaignOptions options);
  ~Campaign();

  Campaign(const Campaign&) = delete;
  Campaign& operator=(const Campaign&) = delete;

  [[nodiscard]] CampaignReport run();

  /// The campaign's driver on scripted traffic: connection i opens at
  /// virtual time 0 (shard i % shards) and sends streams[i] whole.
  /// Returns the bytes each connection received — what a TcpListener
  /// sends back for the same streams. The traffic knobs (connections,
  /// arrivals, behaviors, workload) are not read.
  [[nodiscard]] static std::vector<std::string> replay(
      CampaignOptions options, const std::vector<std::string>& streams);

 private:
  struct Impl;
  Impl* impl_;
};

/// Named campaign presets shared by the ctest suite, the
/// archline_campaign CLI, and CI (steady / burst / diurnal /
/// slow-loris / adversarial / churn / million). Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] CampaignOptions campaign_scenario(const std::string& name);

/// The preset names, for --help and error messages.
[[nodiscard]] std::vector<std::string> campaign_scenario_names();

}  // namespace archline::sim
