#pragma once
// serve::Server — the concurrent request engine behind archline_serverd.
//
// Architecture (one box, four moving parts):
//
//   submit(line) --classify--> LaneScheduler --pop_n--> worker pool
//        |  lane full?      (light | heavy lane)     (lane-affine)
//        v                                               |
//   "overloaded" reply                      cache lookup -> registry
//                                               dispatch  |
//                                            done(response) callback
//
// The transport (TCP listener, stdio loop, in-process loadgen) owns
// connections and ordering; the Server owns admission, execution,
// caching, and metrics. Responses are delivered by callback from worker
// threads; OrderedWriter (below) restores per-connection FIFO order
// when requests from one connection complete out of order.
//
// Class isolation: requests are classified at admission (a registry
// scan of the raw line — no parse) and queued per class. The heavy lane
// is small and separately bounded, so a flood of multi-millisecond
// "fit" requests bounces with "overloaded" while microsecond "predict"s
// keep flowing. Execution concurrency is bounded too: only
// `heavy_workers` threads drain the heavy lane (weighted round-robin
// against light work); the remaining workers are light-only, so heavy
// requests can never occupy the whole pool.
//
// Hot-path invariants (see docs/SERVER.md "Performance"):
//   * a cache hit copies the response body exactly once, into a buffer
//     whose capacity is reused across requests (the endpoint id rides
//     out-of-band as the cache entry's tag, so there is no prefix to
//     strip);
//   * workers drain their lanes in batches (one lock crossing per
//     batch, not three per job) and only wake sleeping peers when one
//     exists;
//   * in-process callers can use handle_into() to execute into a
//     caller-owned buffer — the zero-allocation steady state.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fit/online/resolver.hpp"
#include "fit/online/snapshot.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"
#include "sim/clock.hpp"

namespace archline::serve {

struct ServerOptions {
  /// Worker threads; 0 means hardware_concurrency (min 2).
  int threads = 0;
  /// Light-lane capacity: admitted-but-incomplete Light requests. Past
  /// this, submit rejects with the canned "overloaded" reply.
  std::size_t queue_capacity = 1024;
  /// Heavy-lane capacity, at least 1 (the Server constructor throws
  /// std::invalid_argument on 0). Deliberately much smaller than the
  /// light lane: a heavy request is worth milliseconds of worker time,
  /// so a short queue keeps the backlog (and thus heavy queue latency)
  /// bounded.
  std::size_t heavy_lane_capacity = 64;
  /// Workers allowed to execute Heavy requests; 0 means max(1,
  /// threads/4). Clamped to [1, threads]. The remaining workers are
  /// light-only.
  int heavy_workers = 0;
  /// Response cache entries across all shards; 0 disables caching.
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Default per-request deadline applied at submit (Light lane, and
  /// Heavy too unless heavy_deadline_ms overrides): a job still queued
  /// this long after admission is answered with deadline_exceeded_body()
  /// instead of occupying a worker. 0 disables deadlines.
  int request_deadline_ms = 0;
  /// Heavy-lane deadline override; 0 falls back to request_deadline_ms.
  int heavy_deadline_ms = 0;
  /// Time source for deadlines, latency stamps, and uptime (null = the
  /// real steady clock). Tests inject a sim::SimClock so deadline and
  /// uptime assertions are exact instead of sleep-calibrated.
  const sim::ClockSource* clock = nullptr;
  ProtocolLimits limits;
  /// Online-fitting knobs (RLS forgetting factor, observation window,
  /// re-solve budgets) for the server-owned OnlineStore.
  fit::online::OnlineFitOptions online;
  /// Background re-solve sweep period for platforms with unresolved
  /// observations. 0 (the default) disables the resolver thread:
  /// re-solves then happen only via the explicit "refit" endpoint,
  /// which keeps single-threaded replay (--stdio, golden corpus)
  /// deterministic.
  int refit_interval_ms = 0;
};

class Server {
 public:
  using Done = std::function<void(std::string&&)>;
  using Clock = std::chrono::steady_clock;

  /// Weighted round-robin credits for heavy-capable workers: up to
  /// kLightWeight light pops per kHeavyWeight heavy pop, so even the
  /// heavy-capable subset keeps serving light traffic under a flood.
  static constexpr unsigned kLightWeight = 4;
  static constexpr unsigned kHeavyWeight = 1;

  /// Throws std::invalid_argument when heavy_lane_capacity is 0.
  explicit Server(ServerOptions options = {});

  /// Joins workers (calls shutdown() if still running).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the worker pool. Idempotent while running; after a
  /// shutdown() the lanes are reopened, so start/shutdown cycles
  /// restart a fully functional server.
  void start();

  /// Admits one request line for asynchronous execution. On success,
  /// `done` is invoked exactly once from a worker thread with the
  /// response body (no trailing newline). Returns false — and never
  /// calls `done` — when the request's lane is full or the server is
  /// shutting down; the caller should reply with overloaded_body().
  ///
  /// The request carries its lane's default deadline (none when the
  /// configured ms is 0): if it is still queued when the deadline
  /// passes, `done` receives deadline_exceeded_body() and the request
  /// is never executed.
  [[nodiscard]] bool submit(std::string line, Done done);

  /// Submit against a transport-owned response-cache partition instead
  /// of the server-wide cache: the lookup and the miss-fill both go to
  /// `cache` (null falls back to the server cache). `cache_prechecked`
  /// means the transport already probed the partition on its own thread
  /// (and counted the miss), so the worker skips the re-probe and goes
  /// straight to evaluation. The sharded TCP loop uses this so each
  /// shard's hits never leave its core while misses still fill that
  /// shard's partition.
  [[nodiscard]] bool submit(std::string line, Done done,
                            std::shared_ptr<ShardedLruCache> cache,
                            bool cache_prechecked);

  /// Loop-thread cache probe: trims `line`, looks it up in `cache`
  /// under the current parameter generation, and on a hit renders the
  /// body into `out` (capacity reused) and records the completion in
  /// metrics. Returns false on a miss (which is counted — pair with
  /// submit(..., cache, /*cache_prechecked=*/true) to avoid counting
  /// it twice).
  [[nodiscard]] bool try_serve_cached(std::string_view line,
                                      ShardedLruCache& cache,
                                      std::string& out);

  /// Registers / unregisters a transport-owned cache partition so
  /// cache_stats() and the "stats" endpoint aggregate it. The registry
  /// holds a shared_ptr: a partition stays valid for queued jobs even
  /// after its transport shard is gone.
  void add_cache_partition(std::shared_ptr<const ShardedLruCache> partition);
  void remove_cache_partition(const ShardedLruCache* partition);

  /// Synchronous execution on the calling thread (tests, simple
  /// transports, the in-process loadgen). Same cache/metrics path as
  /// the worker pool; lanes are bypassed (no queueing happens).
  [[nodiscard]] std::string handle_now(std::string_view line);

  /// Synchronous execution into a caller-owned buffer whose capacity is
  /// reused across calls — the zero-allocation steady state for
  /// in-process callers (benchmarks, embedding applications). `out` is
  /// replaced by the response body (no trailing newline).
  void handle_into(std::string_view line, std::string& out);

  /// Graceful shutdown: stop admitting, drain the lanes (every admitted
  /// request's `done` fires), join workers. Safe to call twice.
  void shutdown();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  /// Aggregated cache statistics: the server-wide cache plus every
  /// registered transport partition (hits/misses/entries/... summed).
  [[nodiscard]] ShardedLruCache::Stats cache_stats() const;

  /// The server-owned online-fitting store (observe/params/refit state).
  /// Exposed so transports, benchmarks, and tests can inspect published
  /// snapshots; all ingest still flows through the endpoints.
  [[nodiscard]] fit::online::OnlineStore& online() noexcept {
    return online_;
  }
  [[nodiscard]] const fit::online::OnlineStore& online() const noexcept {
    return online_;
  }

  /// The background resolver, or null when refit_interval_ms == 0 or
  /// the server has not been started.
  [[nodiscard]] fit::online::BackgroundResolver* resolver() noexcept {
    return resolver_.get();
  }

  /// The "stats" response body against live counters (cache numbers
  /// aggregate the transport partitions).
  [[nodiscard]] std::string stats_body() const {
    const fit::online::OnlineStoreStats online = online_.stats();
    return metrics_.to_json(cache_stats(), &online);
  }

  /// Human-readable metrics dump (shutdown summary, SIGUSR1).
  [[nodiscard]] std::string stats_text() const {
    const fit::online::OnlineStoreStats online = online_.stats();
    return metrics_.summary(cache_stats(), &online);
  }

 private:
  struct Job {
    std::string line;
    Done done;
    std::chrono::steady_clock::time_point admitted;
    Clock::time_point deadline = Clock::time_point::max();
    std::size_t lane = kLightLane;
    /// Transport-owned cache partition for this job (null = the server
    /// cache). shared_ptr: the job may outlive the transport shard.
    std::shared_ptr<ShardedLruCache> cache;
    /// The transport already probed (and miss-counted) the partition.
    bool cache_prechecked = false;
  };

  /// How many jobs a worker takes from its lanes per lock crossing.
  /// Small enough that a batch never starves sibling workers under
  /// bursty load, large enough to amortize the mutex when the queue
  /// runs deep.
  static constexpr std::size_t kWorkerBatch = 16;

  /// Shared body of the submit overloads: classifies the line into its
  /// lane, stamps the lane's deadline, and pushes the job.
  [[nodiscard]] bool submit_to_lane(std::string line, Done done,
                                    std::shared_ptr<ShardedLruCache> cache,
                                    bool cache_prechecked);

  /// Cache + registry execution shared by workers and handle_now /
  /// handle_into. The response is rendered into reply.body (capacity
  /// reused); reply.endpoint / reply.ok feed the metrics. A
  /// default-constructed `started` means "latency not sampled for this
  /// request" (see Metrics::sample_latency_now): the completion is
  /// counted without reading the clock.
  void execute_into(std::string_view line,
                    std::chrono::steady_clock::time_point started,
                    Reply& reply);

  /// Same, against an explicit cache. `skip_probe` suppresses the
  /// lookup (the transport already probed and counted the miss); the
  /// miss-fill still goes to `cache`.
  void execute_into(std::string_view line,
                    std::chrono::steady_clock::time_point started,
                    Reply& reply, ShardedLruCache& cache, bool skip_probe);

  /// Deadline check + execute + done; shared by workers and the
  /// shutdown drain so queue-expired jobs are answered identically on
  /// both paths. `scratch` is the worker's reusable reply buffer.
  void run_job(Job& job, Reply& scratch);

  void worker_loop(LaneMask mask);

  ServerOptions options_;
  const sim::ClockSource* clock_;  ///< never null after construction
  ShardedLruCache cache_;
  /// Transport-owned cache partitions registered for stats aggregation.
  mutable std::mutex partitions_mutex_;
  std::vector<std::shared_ptr<const ShardedLruCache>> partitions_;
  Metrics metrics_;
  LaneScheduler<Job> queue_;
  fit::online::OnlineStore online_;
  /// Created by start() when refit_interval_ms > 0; stopped and
  /// destroyed by shutdown(). Declared after online_ (it holds a
  /// reference into it).
  std::unique_ptr<fit::online::BackgroundResolver> resolver_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::mutex lifecycle_mutex_;  ///< serializes start/shutdown
};

/// Restores FIFO response order for one connection when a worker pool
/// completes requests out of order: responses are released strictly by
/// sequence number, buffering any that finish early. The sink callback
/// receives each response body in submission order.
///
/// The sink is invoked WITHOUT the writer's mutex held (a single
/// "flushing" owner drains ready runs), so a slow sink — a blocking
/// socket write, a contended downstream lock — never stalls workers
/// that are merely delivering out-of-order completions.
class OrderedWriter {
 public:
  using Sink = std::function<void(const std::string&)>;

  explicit OrderedWriter(Sink sink) : sink_(std::move(sink)) {}

  /// Reserves the next sequence number (call in submission order).
  [[nodiscard]] std::uint64_t next_sequence() noexcept { return sequence_++; }

  /// Delivers response `seq`; flushes it and any directly following
  /// buffered responses to the sink, in order.
  void complete(std::uint64_t seq, std::string&& body);

  /// Number of reserved-but-undelivered responses.
  [[nodiscard]] std::size_t pending() const;

  /// Blocks until every reserved sequence number has been delivered.
  void drain();

 private:
  /// Writes runs of contiguous buffered responses starting at
  /// next_to_write_, releasing the lock around each run of sink calls.
  /// Pre: lock held and flushing_ == true; post: flushing_ == false.
  void flush_ready(std::unique_lock<std::mutex>& lock);

  Sink sink_;
  std::atomic<std::uint64_t> sequence_{0};  ///< next to reserve
  mutable std::mutex mutex_;
  std::condition_variable all_done_;
  std::uint64_t next_to_write_ = 0;
  bool flushing_ = false;  ///< one thread at a time owns the sink
  std::map<std::uint64_t, std::string> out_of_order_;
  std::vector<std::string> flush_batch_;  ///< flusher-owned scratch
};

/// Serves newline-delimited requests from `in` to `out` through the
/// worker pool, preserving input order; returns after EOF once every
/// response has been written. Used by `archline_serverd --stdio` and
/// the protocol tests. The server must be started; it is NOT shut down
/// on return.
void run_stream(Server& server, std::istream& in, std::ostream& out);

}  // namespace archline::serve
