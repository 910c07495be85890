#pragma once
// serve::Server — the concurrent request engine behind archline_serverd.
//
// Architecture: a request runs to completion on the thread that framed
// it, unless it is a Heavy cache miss.
//
//   line --probe cache--> hit ------------------------> reply (caller)
//             |
//             +-- miss --classify--> Light: evaluate, fill --> reply
//                             |
//                             +--> Heavy: BoundedQueue --> worker pool
//                                   (full? "overloaded")   evaluate, fill
//                                                          done(reply)
//
// The transport (TCP shard loop, stdio loop, in-process caller) owns
// connections and ordering; the Server owns the cache partitions, the
// execution path, the Heavy pool, and metrics. A Light miss costs about
// as much to evaluate as a hop to another thread would, so it never
// takes one. Heavy misses (fit, refit, scenario_sweep, predict_batch
// over 64 elements) queue for a pool of `heavy_workers` threads, so a
// flood of multi-millisecond fits bounces with "overloaded" and never
// occupies the threads that frame and answer Light requests.
// OrderedWriter (below) restores per-connection FIFO order when a
// Heavy reply completes after later Light ones.
//
// Cache: every caller probes exactly one partition, once, before
// anything is queued, and the miss-fill goes to the same partition. The
// TCP transport brings one partition per shard; everyone else uses the
// server's own (cache()). cache_stats() sums the registered partitions.
//
// Hot-path invariants (see docs/SERVER.md "Performance"):
//   * a cache hit copies the response body exactly once, into a buffer
//     whose capacity is reused across requests (the endpoint id rides
//     out-of-band as the cache entry's tag, so there is no prefix to
//     strip);
//   * serve_inline() and handle_into() execute into a caller-owned
//     buffer — the zero-allocation steady state.

#include <atomic>
#include <chrono>
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
  /// Requested thread count; 0 means hardware_concurrency (min 2). It
  /// only sizes the Heavy pool through heavy_workers' default.
  int threads = 0;
  /// Heavy misses admitted but not yet running, at least 1 (the Server
  /// constructor throws std::invalid_argument on 0). Past this, the
  /// request is answered with the canned "overloaded" reply. Light
  /// requests never queue, so they are never bounced here.
  std::size_t queue_capacity = 64;
  /// Worker threads in the Heavy pool; 0 means max(1, threads/4).
  /// Clamped to [1, threads].
  int heavy_workers = 0;
  /// Response cache entries across all shards; 0 disables caching.
  std::size_t cache_capacity = 1 << 16;
  std::size_t cache_shards = 16;
  /// Queue-wait deadline for Heavy misses: a job still queued this long
  /// after admission is answered with deadline_exceeded_body() instead
  /// of occupying a worker. 0 disables deadlines.
  int request_deadline_ms = 0;
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

  /// How serve_inline() disposed of a request.
  enum class Inline : std::uint8_t {
    Hit,        ///< answered from the cache partition
    Evaluated,  ///< a Light miss, evaluated and filled on this thread
    HeavyMiss,  ///< nothing rendered: pass the line to enqueue()
  };

  /// Throws std::invalid_argument when queue_capacity is 0.
  explicit Server(ServerOptions options = {});

  /// Joins workers (calls shutdown() if still running).
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the Heavy pool. Idempotent while running; after a
  /// shutdown() the queue is reopened, so start/shutdown cycles restart
  /// a fully functional server.
  void start();

  /// Serves one request line against the server's own cache partition:
  /// serve_inline() on the calling thread, and enqueue() when that
  /// reports a Heavy miss. `done` is invoked exactly once with the
  /// response body (no trailing newline): before submit returns for a
  /// hit or a Light request, from a worker for a Heavy miss. Returns
  /// false — and never calls `done` — when the server is shut down or
  /// the Heavy queue is full; the caller should reply with
  /// overloaded_body().
  [[nodiscard]] bool submit(std::string line, Done done);

  /// The synchronous half of submit, for transports that frame replies
  /// themselves: probes `cache` once under the current parameter
  /// generation; a hit, or a Light miss evaluated here and filled into
  /// `cache`, renders into `out` (capacity reused) and is recorded in
  /// metrics. A Heavy miss renders nothing (the miss is already
  /// counted) and returns Inline::HeavyMiss.
  [[nodiscard]] Inline serve_inline(std::string_view line,
                                    ShardedLruCache& cache, std::string& out);

  /// The asynchronous half: queues a line serve_inline() reported as a
  /// Heavy miss. A worker evaluates it, fills `cache` (shared: the job
  /// may outlive the transport shard that owns the partition), and
  /// calls `done`. The job carries the request_deadline_ms deadline: if
  /// it is still queued when that passes, `done` receives
  /// deadline_exceeded_body() and the request is never executed.
  /// Returns false, without calling `done`, when the queue is full or
  /// closed.
  [[nodiscard]] bool enqueue(std::string line, Done done,
                             std::shared_ptr<ShardedLruCache> cache);

  /// Test seam: pops one queued Heavy job without blocking and runs it
  /// on the calling thread exactly as a worker would (run_job: the
  /// deadline check, then evaluate and `done`). Returns false when the
  /// queue is empty. sim::Campaign drives the Heavy pool in virtual
  /// time through it, on a server that was never started.
  [[nodiscard]] bool run_queued();

  /// The partition callers without their own use (submit, handle_into).
  [[nodiscard]] const std::shared_ptr<ShardedLruCache>& cache()
      const noexcept {
    return cache_;
  }

  /// Registers / unregisters a transport-owned cache partition so
  /// cache_stats() and the "stats" endpoint aggregate it.
  void add_cache_partition(std::shared_ptr<const ShardedLruCache> partition);
  void remove_cache_partition(const ShardedLruCache* partition);

  /// Synchronous execution on the calling thread, Heavy requests
  /// included (tests, the in-process loadgen, the campaign harness).
  [[nodiscard]] std::string handle_now(std::string_view line);

  /// Synchronous execution into a caller-owned buffer whose capacity is
  /// reused across calls — the zero-allocation steady state for
  /// in-process callers (benchmarks, embedding applications). Runs
  /// Heavy requests inline too. `out` is replaced by the response body
  /// (no trailing newline).
  void handle_into(std::string_view line, std::string& out);

  /// Graceful shutdown: stop admitting, drain the queue (every admitted
  /// request's `done` fires), join workers. Safe to call twice.
  void shutdown();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }
  /// Aggregated cache statistics over every registered partition
  /// (hits/misses/entries/... summed).
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
  /// A queued Heavy miss.
  struct Job {
    std::string line;
    Done done;
    Clock::time_point admitted;  ///< default = latency not sampled
    Clock::time_point deadline = Clock::time_point::max();
    std::shared_ptr<ShardedLruCache> cache;  ///< probed, missed, to fill
  };

  /// The latency start stamp for the request about to run: now() when
  /// Metrics samples this one, else a default time_point ("unsampled").
  [[nodiscard]] Clock::time_point stamp() noexcept;

  /// Records a completion, with latency when `started` was sampled.
  void finish(const Endpoint* endpoint, bool ok, Clock::time_point started);

  /// The evaluation half of the execute path, after a probe of `cache`
  /// missed: handler dispatch, stats substitution, miss-fill, metrics.
  /// Renders into reply.body (capacity reused).
  void evaluate(std::string_view key, ShardedLruCache& cache,
                Clock::time_point started, Reply& reply);

  /// Deadline check + evaluate + done; shared by workers and the
  /// shutdown drain so queue-expired jobs are answered identically on
  /// both paths. `scratch` is the worker's reusable reply buffer.
  void run_job(Job& job, Reply& scratch);

  void worker_loop();

  ServerOptions options_;
  const sim::ClockSource* clock_;  ///< never null after construction
  const std::shared_ptr<ShardedLruCache> cache_;
  /// Every cache partition, the server's own first, for cache_stats().
  mutable std::mutex partitions_mutex_;
  std::vector<std::shared_ptr<const ShardedLruCache>> partitions_;
  Metrics metrics_;
  BoundedQueue<Job> queue_;
  fit::online::OnlineStore online_;
  /// Created by start() when refit_interval_ms > 0; stopped and
  /// destroyed by shutdown(). Declared after online_ (it holds a
  /// reference into it).
  std::unique_ptr<fit::online::BackgroundResolver> resolver_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::mutex lifecycle_mutex_;  ///< serializes start/shutdown
};

/// Restores FIFO response order for one connection when replies finish
/// out of order: responses are released strictly by sequence number,
/// buffering any that finish early. Single-threaded: the transport
/// shard that owns the connection calls it, and worker completions
/// reach that shard through its completion channel (serve/shard_core).
class OrderedWriter {
 public:
  /// Reserves the next sequence number (call in submission order).
  [[nodiscard]] std::uint64_t next_sequence() noexcept { return sequence_++; }

  /// Accepts response `seq`; hands it and any directly following
  /// buffered responses to `sink(std::string&&)`, in order.
  template <class Sink>
  void complete(std::uint64_t seq, std::string&& body, Sink&& sink) {
    if (seq != next_to_write_) {
      out_of_order_.emplace(seq, std::move(body));
      return;
    }
    sink(std::move(body));
    ++next_to_write_;
    for (auto it = out_of_order_.begin();
         it != out_of_order_.end() && it->first == next_to_write_;
         it = out_of_order_.erase(it), ++next_to_write_)
      sink(std::move(it->second));
  }

 private:
  std::uint64_t sequence_ = 0;  ///< next to reserve
  std::uint64_t next_to_write_ = 0;
  std::map<std::uint64_t, std::string> out_of_order_;
};

/// Serves newline-delimited requests from `in` to `out` on the calling
/// thread, one Server::handle_into per non-blank line, Heavy requests
/// included: requests execute, and replies are written, in input order,
/// so state-mutating lines (observe, refit) replay deterministically.
/// Flushes `out` at EOF. Used by `archline_serverd --stdio` and the
/// protocol tests. The server is NOT shut down on return.
void run_stream(Server& server, std::istream& in, std::ostream& out);

}  // namespace archline::serve
