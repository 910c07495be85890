#pragma once
// Server observability: lock-free per-endpoint counters (slotted by
// registry id), per-class latency histograms, Heavy-queue gauges, and
// renderers for the "stats" request (JSON) and the SIGUSR1 / shutdown
// dump (human-readable text).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "fit/online/snapshot.hpp"
#include "serve/cache.hpp"
#include "serve/registry.hpp"
#include "sim/clock.hpp"

namespace archline::serve {

/// Streaming latency histogram: 64 power-of-two nanosecond buckets
/// (bucket b covers [2^b, 2^(b+1)) ns). Recording is one relaxed atomic
/// increment; quantiles are read from a snapshot with log-linear
/// interpolation inside the bucket, so p99 is accurate to ~±35% of the
/// value — plenty for an operational latency summary.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void record(double seconds) noexcept;

  struct Snapshot {
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total = 0;

    /// Value below which fraction q of samples fall, in seconds.
    /// q in [0, 1]; returns 0 when empty.
    [[nodiscard]] double quantile(double q) const noexcept;
  };

  [[nodiscard]] Snapshot snapshot() const noexcept;

  /// Adds this histogram's counts into `out` — how Metrics merges its
  /// per-worker histogram shards into one snapshot.
  void accumulate(Snapshot& out) const noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/// Per-endpoint counters plus Heavy-queue and connection gauges. All methods
/// are thread-safe; writers never block.
class Metrics {
 public:
  /// One slot per registrable endpoint plus a trailing slot for
  /// requests that never reached a handler (parse errors, unknown
  /// types). Sized statically so completion counters stay plain atomic
  /// arrays.
  static constexpr std::size_t kEndpointSlots = Registry::kMaxEndpoints + 1;
  static constexpr std::size_t kInvalidSlot = Registry::kMaxEndpoints;

  /// `clock` is the time source for uptime/qps (null = the real steady
  /// clock). Tests inject a sim::SimClock to make uptime exact.
  explicit Metrics(const sim::ClockSource* clock = nullptr);

  /// Request finished (from cache or evaluated). `endpoint` is the
  /// descriptor it dispatched to (nullptr = never reached a handler);
  /// `ok` is the protocol success flag; latency covers
  /// submit-to-response and lands in the endpoint's class histogram.
  void on_completed(const Endpoint* endpoint, bool ok,
                    double latency_s) noexcept;

  /// Request finished but its latency was not measured (the caller's
  /// sample_latency_now() said skip). Counts are exact either way; only
  /// the histogram is sampled.
  void on_completed(const Endpoint* endpoint, bool ok) noexcept;

  /// Should the caller time the request it is about to run? Latency
  /// timestamps cost two clock reads per request — a measurable slice
  /// of a cache hit — so after `kLatencyWarmupSamples` requests on this
  /// thread's shard, only every `kLatencySampleEvery`-th request is
  /// timed. The warm-up keeps small workloads (tests, short sessions)
  /// exact; the steady state amortizes the clocks to ~zero. Quantiles
  /// from the sampled histogram are unbiased — sampling is by position,
  /// not by value.
  [[nodiscard]] bool sample_latency_now() noexcept;

  static constexpr std::uint64_t kLatencyWarmupSamples = 256;
  static constexpr std::uint64_t kLatencySampleEvery = 16;

  /// Heavy miss rejected at admission because the queue was full.
  void on_rejected() noexcept;

  /// Heavy miss expired in the queue and was answered with
  /// deadline_exceeded instead of being executed.
  void on_deadline_exceeded() noexcept;

  /// Queue depth observed after a push or a pop (tracks current and
  /// high water).
  void on_queue_depth(std::size_t depth) noexcept;

  /// Upper bound on TCP event-loop shards tracked individually
  /// (matches TcpListener::kMaxShards).
  static constexpr std::size_t kMaxTransportShards = 16;

  /// Declares how many event-loop shards the transport runs — sizes the
  /// per-shard section of the stats snapshot. 0 (the default) means "no
  /// sharded transport": counters still work (everything lands on shard
  /// 0) and the per-shard stats section is omitted.
  void set_transport_shards(std::size_t n) noexcept;

  /// Connection lifecycle, reported by the TCP event loop; `shard` is
  /// the owning event-loop shard (callers without shards use 0).
  void on_connection_opened(std::size_t shard = 0) noexcept;  ///< accepted++, open++
  void on_connection_closed(std::size_t shard = 0) noexcept;  ///< open--
  void on_connection_rejected(std::size_t shard = 0) noexcept;  ///< over the cap
  void on_connection_idle_closed(std::size_t shard = 0) noexcept;  ///< idle timer

  /// One request line admitted for processing by a transport shard.
  void on_shard_request(std::size_t shard) noexcept;
  /// A request a shard answered inline from its cache partition —
  /// never touched the worker pool or another core.
  void on_shard_cached(std::size_t shard) noexcept;

  struct Snapshot {
    std::uint64_t completed = 0;        ///< sum over endpoints
    std::uint64_t errors = 0;           ///< ok == false completions
    std::uint64_t rejected = 0;         ///< Heavy overload rejections
    std::uint64_t deadline_exceeded = 0;  ///< Heavy, expired while queued
    std::array<std::uint64_t, kEndpointSlots> by_endpoint{};  ///< by id
    std::size_t queue_depth = 0;        ///< Heavy queue, current
    std::size_t queue_peak = 0;         ///< Heavy queue, high water
    LatencyHistogram::Snapshot heavy_latency;  ///< Heavy completions
    std::uint64_t connections_open = 0;      ///< gauge: live connections
    std::uint64_t connections_accepted = 0;  ///< lifetime accepts
    std::uint64_t connections_rejected = 0;  ///< refused at the cap
    std::uint64_t connections_idle_closed = 0;  ///< closed by idle timer
    /// Per-event-loop-shard transport counters; entries [0,
    /// transport_shards) are meaningful. The connection_* aggregates
    /// above are the sums over all shards.
    struct TransportShardSnapshot {
      std::uint64_t open = 0;
      std::uint64_t accepted = 0;
      std::uint64_t rejected = 0;
      std::uint64_t idle_closed = 0;
      std::uint64_t requests = 0;       ///< lines admitted by this shard
      std::uint64_t cached_inline = 0;  ///< answered from the partition
    };
    std::size_t transport_shards = 0;  ///< 0 = no sharded transport
    std::array<TransportShardSnapshot, kMaxTransportShards> shards{};
    double uptime_s = 0.0;
    double qps = 0.0;                   ///< completed / uptime
    LatencyHistogram::Snapshot latency;  ///< all classes merged
  };

  [[nodiscard]] Snapshot snapshot() const noexcept;

  /// The "stats" response body: {"ok":true,"type":"stats",...} with the
  /// snapshot, latency quantiles, the Heavy section, and the cache's
  /// counters folded in. Pass the OnlineStore's stats to append the
  /// "online" section (observation counts, parameter generation,
  /// re-solve latency); the null default keeps pre-online callers and
  /// direct Metrics tests unchanged.
  [[nodiscard]] std::string to_json(
      const ShardedLruCache::Stats& cache,
      const fit::online::OnlineStoreStats* online = nullptr) const;

  /// Multi-line human-readable summary (shutdown / SIGUSR1 dump).
  [[nodiscard]] std::string summary(
      const ShardedLruCache::Stats& cache,
      const fit::online::OnlineStoreStats* online = nullptr) const;

 private:
  /// Completion counters are the per-request write hot spot (every
  /// worker bumps them for every request), so they are striped across
  /// cache-line-aligned shards: each thread picks a home shard once and
  /// keeps its increments out of the other workers' cache lines.
  /// Snapshot readers merge all shards. The remaining counters are rare
  /// events (rejections, connection lifecycle) and stay unsharded.
  static constexpr std::size_t kCompletionShards = 8;
  struct alignas(64) CompletionShard {
    std::array<std::atomic<std::uint64_t>, kEndpointSlots> by_endpoint{};
    std::atomic<std::uint64_t> errors{0};
    std::atomic<std::uint64_t> sample_tick{0};  ///< sample_latency_now state
    /// One histogram per request class — the Heavy p99 is reported on
    /// its own, the merged one covers everything.
    std::array<LatencyHistogram, kRequestClassCount> latency{};
  };

  /// The calling thread's home shard (round-robin assigned on first use).
  [[nodiscard]] CompletionShard& completion_shard() noexcept;

  const sim::ClockSource* clock_;  ///< never null after construction
  std::chrono::steady_clock::time_point start_;
  std::array<CompletionShard, kCompletionShards> completion_shards_{};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> queue_depth_{0};
  std::atomic<std::uint64_t> queue_peak_{0};
  /// Connection/request counters striped by transport shard: each
  /// event-loop thread writes only its own cache line. Shard indexes at
  /// or beyond kMaxTransportShards clamp to the last slot (counts stay
  /// exact in aggregate; per-shard attribution saturates).
  struct alignas(64) TransportShard {
    std::atomic<std::uint64_t> open{0};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> cached_inline{0};
  };
  [[nodiscard]] TransportShard& transport_shard(std::size_t shard) noexcept {
    return transport_shards_counters_[shard < kMaxTransportShards
                                          ? shard
                                          : kMaxTransportShards - 1];
  }

  std::atomic<std::size_t> transport_shards_{0};
  std::array<TransportShard, kMaxTransportShards> transport_shards_counters_{};
};

}  // namespace archline::serve
