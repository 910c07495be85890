// serve_throughput — in-process microbenchmark of the serving hot path.
//
// Most scenarios drive serve::Server (or one of its parts) directly —
// no sockets, no pipelining — so the numbers isolate per-request cost:
// cache lookup, JSON parse, protocol dispatch. The
// tcp_* and predict_batch_{1,64,256} scenarios additionally cross the
// real TCP front end. serve_loadgen measures the whole daemon; this
// tool answers "what does one request cost, and where".
//
// Scenarios:
//   cached_hit_1t    handle_now() on a warmed key pool, one thread
//   cached_hit_mt    same, all hardware threads hammering one server
//   miss_predict_1t  predict with the cache disabled (parse + eval + dump)
//   predict_batch_{1,64,256}  predict_batch with N elements per request
//                    through the TCP front end, one request per round
//                    trip, cache disabled: the client-visible cost.
//                    ops are REQUESTS: per-prediction cost is
//                    1/(ops_per_s*N), and the batching headline is
//                    per-prediction(batch_1) vs per-prediction(batch_256)
//   predict_batch_inproc_{1,64,256}  same pools through bare
//                    handle_into (no transport): the SoA evaluate +
//                    render marginal cost per element
//   json_parse_1t    Json::parse of a representative predict line
//   predict_no_flood         closed-loop warmed predict latency through
//                            submit(): a Light request completes on the
//                            submitting thread, so this is the cost of
//                            submit's inline path (probe + hit + done)
//   heavy_starvation         same, while a flooder keeps 32 unique-id
//                            fits in flight on the Heavy pool: the
//                            isolation claim, measured
//   observe_ingest_1t        "observe" with an 8-tuple batch: parse +
//                            per-tuple learner update + ring-buffer write,
//                            never cached — the streaming ingest cost
//   observe_under_refit_mt   same ingest on all threads while the
//                            background resolver re-solves and publishes
//                            every 20 ms: observe p99 with snapshot
//                            swaps and cache invalidation in flight
//   policy_advise_hit        policy_advise on a warmed key pool: the
//                            steady-state probe cost of a control loop
//                            re-asking the same question each period
//   policy_advise_miss       same pool, cache off: parse + full ladder
//                            sweep (race/steady/cap plans per operating
//                            point) + argmin + plan-table render
//   tcp_cached_shard{1,2,4}  the front-end scaling scenario: a real
//                            TcpListener with N event-loop shards on
//                            loopback, 2N closed-loop clients pipelining
//                            depth-64 warmed predicts — the shard-scaling
//                            headline (aggregate replies/s vs N). Run on
//                            a multi-core host; a 1-CPU container
//                            serializes the shards and shows ~flat scaling
//   tcp_paced_predict        one connection, one warmed cached predict
//                            every 200 us (sleep-until, open loop):
//                            p50/p99 round trip when the shard is idle
//                            between requests, as in perfbench cold-open
//
// Request lines come from the shared vocabulary (sim/request_pools.hpp),
// the same pools serve_loadgen and the traffic campaigns send.
//
// Each scenario reports ops, ops/s, sampled per-op p50/p99 latency
// (nearest rank), and heap allocations per op (global operator new is
// instrumented). Output
// is one JSON object (deterministic key order) to stdout and, with
// --out FILE, to a file — machine-readable so BENCH_serve.json can track
// the trajectory across PRs.
//
// Usage: serve_throughput [--seconds S] [--threads N] [--out FILE]

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "sim/request_pools.hpp"
#include "sim/tcp_client.hpp"
#include "stats/descriptive.hpp"

// ---- Allocation counter ----------------------------------------------------
// Counts every global operator new so scenarios can report allocs/op.
// Relaxed atomic: the count only needs to be right, not ordered.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(a),
                                   (n + static_cast<std::size_t>(a) - 1) &
                                       ~(static_cast<std::size_t>(a) - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace archline;
using Clock = std::chrono::steady_clock;

struct Config {
  double seconds = 1.0;  ///< wall-clock budget per scenario
  int threads = 0;       ///< 0 = hardware_concurrency
  std::string out;       ///< also write the JSON object here
};

struct ScenarioResult {
  std::string name;
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double allocs_per_op = 0.0;

  [[nodiscard]] double ops_per_s() const noexcept {
    return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  }
};

/// Seed for the seeded request pools (serve_loadgen's default --seed).
constexpr std::uint64_t kPoolSeed = 42;

/// Sorts the latency samples and stores their p50/p99 in `r`.
void set_quantiles(ScenarioResult& r, std::vector<double>& samples) {
  std::sort(samples.begin(), samples.end());
  r.p50_ns = stats::nearest_rank(samples, 0.50);
  r.p99_ns = stats::nearest_rank(samples, 0.99);
}

/// Runs `op` in a timed loop on one thread. Every 64th op is timed
/// individually for the latency quantiles; the rest run back-to-back so
/// the throughput figure is not dominated by clock reads.
template <typename F>
ScenarioResult run_single(const std::string& name, double budget_s, F&& op) {
  ScenarioResult r;
  r.name = name;
  std::vector<double> samples;
  samples.reserve(1 << 20);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget_s));
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t ops = 0;
  for (;;) {
    for (int i = 0; i < 63; ++i) op();
    const auto t0 = Clock::now();
    op();
    const auto t1 = Clock::now();
    ops += 64;
    if (samples.size() < samples.capacity())
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (t1 >= deadline) break;
  }
  const auto end = Clock::now();
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.allocs_per_op =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(ops);
  set_quantiles(r, samples);
  return r;
}

/// Same loop on `threads` threads against shared state; thread 0
/// contributes the latency samples.
template <typename F>
ScenarioResult run_multi(const std::string& name, double budget_s,
                         int threads, F&& op) {
  ScenarioResult r;
  r.name = name;
  std::vector<double> samples;
  samples.reserve(1 << 20);
  std::atomic<std::uint64_t> total_ops{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(budget_s));
  const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::uint64_t ops = 0;
      for (;;) {
        for (int i = 0; i < 63; ++i) op(t);
        const auto t0 = Clock::now();
        op(t);
        const auto t1 = Clock::now();
        ops += 64;
        if (t == 0 && samples.size() < samples.capacity())
          samples.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count());
        if (t1 >= deadline) break;
      }
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  for (auto& t : pool) t.join();
  const auto end = Clock::now();
  const std::uint64_t allocs1 = g_allocs.load(std::memory_order_relaxed);
  r.ops = total_ops.load();
  r.seconds = std::chrono::duration<double>(end - start).count();
  r.allocs_per_op = r.ops ? static_cast<double>(allocs1 - allocs0) /
                                static_cast<double>(r.ops)
                          : 0.0;
  set_quantiles(r, samples);
  return r;
}

// ---- Scenarios -------------------------------------------------------------

ScenarioResult bench_cached_hit_1t(const Config& cfg,
                                   const std::vector<std::string>& pool) {
  serve::Server server;
  for (const std::string& line : pool) (void)server.handle_now(line);  // warm
  std::size_t i = 0;
  std::string out;
  auto r = run_single("cached_hit_1t", cfg.seconds, [&] {
    server.handle_into(pool[i], out);
    if (++i == pool.size()) i = 0;
  });
  return r;
}

ScenarioResult bench_cached_hit_mt(const Config& cfg,
                                   const std::vector<std::string>& pool,
                                   int threads) {
  serve::Server server;
  for (const std::string& line : pool) (void)server.handle_now(line);
  struct PerThread {
    std::size_t i = 0;
    std::string out;
    char pad[64];
  };
  std::vector<PerThread> state(static_cast<std::size_t>(threads));
  auto r = run_multi("cached_hit_mt", cfg.seconds, threads, [&](int t) {
    PerThread& s = state[static_cast<std::size_t>(t)];
    server.handle_into(pool[s.i], s.out);
    if (++s.i == pool.size()) s.i = 0;
  });
  return r;
}

ScenarioResult bench_miss_predict_1t(const Config& cfg,
                                     const std::vector<std::string>& pool) {
  serve::ServerOptions opt;
  opt.cache_capacity = 0;  // every request takes the full miss path
  serve::Server server(opt);
  std::size_t i = 0;
  std::string out;
  auto r = run_single("miss_predict_1t", cfg.seconds, [&] {
    server.handle_into(pool[i], out);
    if (++i == pool.size()) i = 0;
  });
  return r;
}

/// predict_batch on the miss path: ops are requests, each carrying a
/// fixed element count, so per-PREDICTION cost is latency / batch size.
ScenarioResult bench_miss_batch_1t(const Config& cfg, const char* name,
                                   const std::vector<std::string>& pool) {
  serve::ServerOptions opt;
  opt.cache_capacity = 0;  // every request takes the full miss path
  serve::Server server(opt);
  std::size_t i = 0;
  std::string out;
  return run_single(name, cfg.seconds, [&] {
    server.handle_into(pool[i], out);
    if (++i == pool.size()) i = 0;
  });
}

ScenarioResult bench_json_parse_1t(const Config& cfg,
                                   const std::vector<std::string>& pool) {
  std::size_t i = 0;
  return run_single("json_parse_1t", cfg.seconds, [&] {
    const serve::Json doc = serve::Json::parse(pool[i]);
    if (doc.type() != serve::Json::Type::Object) std::abort();
    if (++i == pool.size()) i = 0;
  });
}

ScenarioResult bench_json_parse_insitu_1t(const Config& cfg,
                                          const std::vector<std::string>&
                                              pool) {
  std::size_t i = 0;
  return run_single("json_parse_insitu_1t", cfg.seconds, [&] {
    const serve::Json doc = serve::Json::parse_in_situ(pool[i]);
    if (doc.type() != serve::Json::Type::Object) std::abort();
    if (++i == pool.size()) i = 0;
  });
}

/// Closed-loop predict latency through submit() (cache warmed; a Light
/// request's done fires before submit returns), optionally under a
/// sustained flood that keeps up to 32 fits in flight on the Heavy
/// pool. Each flood fit is a shared fit-pool line with a unique id, so
/// every one misses the cache and costs a real solver run.
ScenarioResult bench_predict_latency(const char* name, const Config& cfg,
                                     const std::vector<std::string>& pool,
                                     int threads, bool flood) {
  serve::ServerOptions opt;
  opt.threads = threads;
  serve::Server server(opt);
  server.start();
  for (const std::string& line : pool) (void)server.handle_now(line);  // warm

  std::atomic<bool> stop{false};
  std::thread flooder;
  if (flood)
    flooder = std::thread([&] {
      const auto fits = sim::make_fit_pool(4, kPoolSeed);
      std::atomic<int> inflight{0};
      long n = 0;
      while (!stop.load(std::memory_order_acquire)) {
        if (inflight.load(std::memory_order_acquire) >= 32) {
          std::this_thread::yield();
          continue;
        }
        ++n;
        std::string fit = sim::with_unique_id(
            fits[static_cast<std::size_t>(n) % fits.size()], n);
        inflight.fetch_add(1, std::memory_order_relaxed);
        if (!server.submit(std::move(fit), [&](std::string&&) {
              inflight.fetch_sub(1, std::memory_order_release);
            })) {
          inflight.fetch_sub(1, std::memory_order_relaxed);
          std::this_thread::yield();
        }
      }
      // Let the admitted tail drain so shutdown() below stays quick.
      while (inflight.load(std::memory_order_acquire) > 0)
        std::this_thread::yield();
    });

  std::vector<double> samples;
  samples.reserve(1 << 20);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  std::size_t i = 0;
  for (;;) {
    bool answered = false;
    const auto t0 = Clock::now();
    if (!server.submit(pool[i], [&](std::string&&) { answered = true; }) ||
        !answered)
      std::abort();  // a Light request must finish inside submit
    const auto t1 = Clock::now();
    if (samples.size() < samples.capacity())
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
    if (++i == pool.size()) i = 0;
    if (t1 >= deadline) break;
  }
  const auto end = Clock::now();
  stop.store(true, std::memory_order_release);
  if (flooder.joinable()) flooder.join();
  server.shutdown();

  ScenarioResult r;
  r.name = name;
  r.ops = samples.size();
  r.seconds = std::chrono::duration<double>(end - start).count();
  set_quantiles(r, samples);
  return r;
}

/// policy_advise cost, one thread. `warm` pre-answers the pool so every
/// op is a cache probe (the steady-state cost of a control loop asking
/// the same question each period); without it the cache is off and every
/// op pays the full miss path — parse, ladder sweep (race/steady/cap
/// plans per operating point), argmin, plan-table render.
ScenarioResult bench_policy_advise_1t(const Config& cfg, const char* name,
                                      const std::vector<std::string>& pool,
                                      bool warm) {
  serve::ServerOptions opt;
  if (!warm) opt.cache_capacity = 0;
  serve::Server server(opt);
  if (warm)
    for (const std::string& line : pool) (void)server.handle_now(line);
  std::size_t i = 0;
  std::string out;
  return run_single(name, cfg.seconds, [&] {
    server.handle_into(pool[i], out);
    if (++i == pool.size()) i = 0;
  });
}

/// Streaming ingest cost, one thread: every op is an "observe" with an
/// 8-tuple batch — parse, per-tuple learner update, ring-buffer write.
/// Never cached, so the number is the pure per-request ingest path.
ScenarioResult bench_observe_ingest_1t(const Config& cfg,
                                       const std::vector<std::string>& pool) {
  serve::Server server;
  std::size_t i = 0;
  std::string out;
  return run_single("observe_ingest_1t", cfg.seconds, [&] {
    server.handle_into(pool[i], out);
    if (++i == pool.size()) i = 0;
  });
}

/// The ingest path under concurrent re-solves: all threads stream
/// observes while the background resolver re-fits dirty platforms every
/// 20 ms and publishes new snapshots (each publish bumps the cache
/// generation). The p99 here is the "observe never waits on a re-solve"
/// claim, measured.
ScenarioResult bench_observe_under_refit_mt(
    const Config& cfg, const std::vector<std::string>& pool, int threads) {
  serve::ServerOptions opt;
  opt.refit_interval_ms = 20;
  serve::Server server(opt);
  server.start();
  struct PerThread {
    std::size_t i = 0;
    std::string out;
    char pad[64];
  };
  std::vector<PerThread> state(static_cast<std::size_t>(threads));
  auto r = run_multi("observe_under_refit_mt", cfg.seconds, threads,
                     [&](int t) {
                       PerThread& s = state[static_cast<std::size_t>(t)];
                       server.handle_into(pool[s.i], s.out);
                       if (++s.i == pool.size()) s.i = 0;
                     });
  server.shutdown();
  return r;
}

/// Aggregate cached-hit throughput through the real TCP front end with
/// `shards` event-loop shards: 2*shards closed-loop clients, each
/// pipelining `kPipelineDepth` warmed predicts per round trip. Its
/// ops/s at shard counts 1/2/4 is the front-end scaling claim.
ScenarioResult bench_tcp_cached_shards(const Config& cfg, const char* name,
                                       const std::vector<std::string>& pool,
                                       int shards) {
  constexpr int kPipelineDepth = 64;
  serve::ServerOptions opt;
  opt.threads = 2;  // after warm-up, hits are answered on the shard itself
  serve::Server server(opt);
  server.start();
  serve::TcpOptions tcp;
  tcp.port = 0;
  tcp.shards = shards;
  tcp.poll_interval_ms = 5;
  serve::TcpListener listener(server, tcp);
  std::string error;
  if (!listener.open(&error)) {
    std::fprintf(stderr, "serve_throughput: %s: %s\n", name, error.c_str());
    std::exit(1);
  }
  std::atomic<bool> stop{false};
  std::thread loop([&] { listener.run(stop); });

  const int clients = 2 * shards;
  std::atomic<std::uint64_t> total_ops{0};
  std::vector<double> samples;  // thread 0's per-reply latency estimates
  samples.reserve(1 << 20);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = sim::connect_tcp("127.0.0.1", listener.port());
      if (fd < 0) return;
      // Each client cycles a distinct window of the warmed pool so the
      // shards serve a mix of keys, not one hot line.
      std::string block;
      std::size_t at = static_cast<std::size_t>(c) * 7 % pool.size();
      std::uint64_t ops = 0;
      char chunk[65536];
      for (;;) {
        block.clear();
        for (int i = 0; i < kPipelineDepth; ++i) {
          block += pool[at];
          block += '\n';
          if (++at == pool.size()) at = 0;
        }
        const auto t0 = Clock::now();
        if (!sim::send_all(fd, block)) break;
        int newlines = 0;
        while (newlines < kPipelineDepth) {
          const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
          if (n <= 0) {
            if (n < 0 && errno == EINTR) continue;
            break;
          }
          for (ssize_t b = 0; b < n; ++b)
            if (chunk[b] == '\n') ++newlines;
        }
        if (newlines < kPipelineDepth) break;
        const auto t1 = Clock::now();
        ops += static_cast<std::uint64_t>(kPipelineDepth);
        if (c == 0 && samples.size() < samples.capacity())
          samples.push_back(
              std::chrono::duration<double, std::nano>(t1 - t0).count() /
              kPipelineDepth);
        if (t1 >= deadline) break;
      }
      ::close(fd);
      total_ops.fetch_add(ops, std::memory_order_relaxed);
    });
  }
  for (auto& t : threads) t.join();
  const auto end = Clock::now();
  stop.store(true, std::memory_order_release);
  loop.join();
  server.shutdown();

  ScenarioResult r;
  r.name = name;
  r.ops = total_ops.load();
  r.seconds = std::chrono::duration<double>(end - start).count();
  set_quantiles(r, samples);
  return r;
}


/// One connection, one request per round trip, through a one-shard TCP
/// front end.
///
/// pace == 0: closed loop, cache off — predict_batch through the front
/// end. The per-PREDICTION cost a client actually pays — frame + shard
/// read + queue + SoA evaluate + render + reply write — is latency /
/// batch size.
/// This is the batching headline: every term but the per-element
/// evaluate/render amortizes across the batch, so ops here are REQUESTS
/// and per-prediction cost is 1 / (ops_per_s * batch). The inproc
/// predict_batch_inproc_* trio isolates the handle_into marginal cost
/// without the transport.
///
/// pace > 0: cache on and warmed by one pass over the pool, then one
/// request every `pace` on a fixed schedule (sleep-until, open loop).
/// Every reply is an inline hit and the shard has no work between
/// requests, so the round trip is the transport plus what the shard
/// pays to notice a request after a gap: a park/wake unless it is still
/// spinning — the cold-open shape (tcp_paced_predict).
ScenarioResult bench_tcp_round_trips(const Config& cfg, const char* name,
                                     const std::vector<std::string>& pool,
                                     std::chrono::microseconds pace = {}) {
  const bool paced = pace.count() > 0;
  serve::ServerOptions opt;
  if (!paced) opt.cache_capacity = 0;  // every request takes the miss path
  opt.threads = 2;
  serve::Server server(opt);
  server.start();
  serve::TcpOptions tcp;
  tcp.port = 0;
  tcp.shards = 1;
  tcp.poll_interval_ms = 5;
  serve::TcpListener listener(server, tcp);
  std::string error;
  if (!listener.open(&error)) {
    std::fprintf(stderr, "serve_throughput: %s: %s\n", name, error.c_str());
    std::exit(1);
  }
  std::atomic<bool> stop{false};
  std::thread loop([&] { listener.run(stop); });

  std::uint64_t ops = 0;
  std::vector<double> samples;
  samples.reserve(1 << 20);
  const int fd = sim::connect_tcp("127.0.0.1", listener.port());
  char chunk[65536];
  // Sends one line and blocks until its reply's newline arrives.
  const auto round_trip = [&](const std::string& line) {
    if (!sim::send_all(fd, line)) return false;
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return false;
      }
      if (std::memchr(chunk, '\n', static_cast<std::size_t>(n)))
        return true;
    }
  };
  if (fd >= 0 && paced)
    for (const std::string& request : pool)
      if (!round_trip(request + '\n')) break;

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  auto end = start;
  auto next_send = start;
  if (fd >= 0) {
    std::size_t at = 0;
    std::string line;
    for (;;) {
      line.assign(pool[at]);
      line += '\n';
      if (++at == pool.size()) at = 0;
      if (paced) {
        std::this_thread::sleep_until(next_send);
        next_send += pace;
      }
      const auto t0 = Clock::now();
      if (!round_trip(line)) break;
      const auto t1 = Clock::now();
      ++ops;
      if (samples.size() < samples.capacity())
        samples.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
      if (t1 >= deadline) {
        end = t1;
        break;
      }
    }
    ::close(fd);
  }
  stop.store(true, std::memory_order_release);
  loop.join();
  server.shutdown();

  ScenarioResult r;
  r.name = name;
  r.ops = ops;
  r.seconds = std::chrono::duration<double>(end - start).count();
  set_quantiles(r, samples);
  return r;
}

// ---- Report ----------------------------------------------------------------

serve::Json to_json(const ScenarioResult& r) {
  serve::Json row = serve::Json::object();
  row.set("ops", r.ops);
  row.set("seconds", r.seconds);
  row.set("ops_per_s", r.ops_per_s());
  row.set("p50_ns", r.p50_ns);
  row.set("p99_ns", r.p99_ns);
  row.set("allocs_per_op", r.allocs_per_op);
  return row;
}

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr, "usage: %s [--seconds S] [--threads N] [--out FILE]\n",
               argv0);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--seconds") cfg.seconds = std::atof(value());
    else if (arg == "--threads") cfg.threads = std::atoi(value());
    else if (arg == "--out") cfg.out = value();
    else if (arg == "--help" || arg == "-h") usage(argv[0], 0);
    else usage(argv[0], 2);
  }
  if (cfg.seconds <= 0.0 || cfg.threads < 0) usage(argv[0], 2);
  const int threads =
      cfg.threads > 0
          ? cfg.threads
          : static_cast<int>(
                std::max(2u, std::thread::hardware_concurrency()));

  const auto pool = sim::make_predict_pool(64);
  std::fprintf(stderr,
               "serve_throughput: %.2f s/scenario, %d threads, "
               "%zu-key predict pool\n",
               cfg.seconds, threads, pool.size());

  std::vector<ScenarioResult> results;
  results.push_back(bench_cached_hit_1t(cfg, pool));
  results.push_back(bench_cached_hit_mt(cfg, pool, threads));
  results.push_back(bench_miss_predict_1t(cfg, pool));
  // The batching headline, measured where clients feel it: through the
  // TCP front end, one request per round trip, cache off. Everything a
  // request pays once — framing, shard read, reply write —
  // amortizes across the batch; per-prediction cost = 1/(ops_per_s*N).
  results.push_back(bench_tcp_round_trips(cfg, "predict_batch_1",
                                          sim::make_batch_pool(64, {1})));
  results.push_back(bench_tcp_round_trips(cfg, "predict_batch_64",
                                          sim::make_batch_pool(64, {64})));
  results.push_back(bench_tcp_round_trips(cfg, "predict_batch_256",
                                          sim::make_batch_pool(16, {256})));
  // The same trio without the transport: bare handle_into marginal
  // cost, isolating the SoA evaluate + render per element.
  results.push_back(bench_miss_batch_1t(cfg, "predict_batch_inproc_1",
                                        sim::make_batch_pool(64, {1})));
  results.push_back(bench_miss_batch_1t(cfg, "predict_batch_inproc_64",
                                        sim::make_batch_pool(64, {64})));
  results.push_back(bench_miss_batch_1t(cfg, "predict_batch_inproc_256",
                                        sim::make_batch_pool(16, {256})));
  results.push_back(bench_json_parse_1t(cfg, pool));
  results.push_back(bench_json_parse_insitu_1t(cfg, pool));
  // The heavy-starvation pair: baseline latency and latency under a fit
  // flood. heavy_starvation/predict_no_flood p99 is the isolation
  // headline.
  results.push_back(
      bench_predict_latency("predict_no_flood", cfg, pool, threads, false));
  results.push_back(
      bench_predict_latency("heavy_starvation", cfg, pool, threads, true));
  // The policy engine's endpoint: steady-state (cached) probe cost and
  // the full ladder-sweep miss cost.
  const auto policies = sim::make_policy_pool();
  results.push_back(
      bench_policy_advise_1t(cfg, "policy_advise_hit", policies, true));
  results.push_back(
      bench_policy_advise_1t(cfg, "policy_advise_miss", policies, false));
  // Online-fit ingest: per-request cost alone, then with the background
  // resolver publishing re-solves underneath.
  const auto observes = sim::make_observe_pool(64, kPoolSeed);
  results.push_back(bench_observe_ingest_1t(cfg, observes));
  results.push_back(bench_observe_under_refit_mt(cfg, observes, threads));
  // Front-end shard scaling: the same warmed predict pool through the
  // real TCP transport at 1, 2, and 4 event-loop shards.
  results.push_back(bench_tcp_cached_shards(cfg, "tcp_cached_shard1", pool, 1));
  results.push_back(bench_tcp_cached_shards(cfg, "tcp_cached_shard2", pool, 2));
  results.push_back(bench_tcp_cached_shards(cfg, "tcp_cached_shard4", pool, 4));
  // A warmed hit every 200 us on one connection: the shard idles between
  // requests, so this is the round trip a sparse client sees.
  results.push_back(bench_tcp_round_trips(cfg, "tcp_paced_predict", pool,
                                          std::chrono::microseconds(200)));

  for (const ScenarioResult& r : results)
    std::fprintf(stderr,
                 "  %-22s %12.0f ops/s   p50 %8.0f ns   p99 %8.0f ns   "
                 "%6.2f allocs/op\n",
                 r.name.c_str(), r.ops_per_s(), r.p50_ns, r.p99_ns,
                 r.allocs_per_op);

  serve::Json out = serve::Json::object();
  out.set("bench", "serve_throughput");
  out.set("threads", threads);
  out.set("seconds_per_scenario", cfg.seconds);
  serve::Json scenarios = serve::Json::object();
  for (const ScenarioResult& r : results) scenarios.set(r.name, to_json(r));
  out.set("scenarios", std::move(scenarios));
  const std::string doc = out.dump();
  std::printf("%s\n", doc.c_str());
  if (!cfg.out.empty()) {
    if (std::FILE* f = std::fopen(cfg.out.c_str(), "w")) {
      std::fprintf(f, "%s\n", doc.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "serve_throughput: cannot write %s\n",
                   cfg.out.c_str());
      return 1;
    }
  }
  return 0;
}
