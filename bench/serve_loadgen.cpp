// serve_loadgen — closed-loop load generator for archline_serverd.
//
// Drives a mixed workload (default 90% predict / 10% fit) with a small
// repeated key pool, so the server's response cache is exercised the
// way production traffic would: most requests are cache hits, fits are
// ~10^4x the cost of predictions on a miss and nearly free on a hit.
//
// Usage:
//   serve_loadgen [--host H] [--port N] [--connections N] [--threads N]
//                 [--requests N] [--pipeline N] [--keys N]
//                 [--fit-frac F] [--seed S] [--scenario NAME]
//                 [--inproc] [--json]
//
// Scenarios (--scenario):
//   mixed            the default workload described above
//   heavy-starvation one client floods cache-defeating "fit" requests
//                    (each a real solver run) while the others send
//                    predicts one at a time; the reported client batch
//                    latency IS per-predict latency under the flood —
//                    the number inline Light execution keeps flat
//   observe-heavy    a live-learning ingest workload: 70% observe
//                    (streaming measured tuples, never cached), 20%
//                    predict, 10% params. Every connection draws from
//                    its own PCG32 stream, so the interleaving of
//                    ingest and reads is reproducible run to run
//   batch-predict    pure predict_batch traffic with a deterministic
//                    spread of batch sizes (1, 8, 64, 256 cycling over
//                    the key pool), so one run crosses the classifier
//                    boundary and exercises both the inline Light path
//                    and the Heavy pool; replies are cacheable, so the
//                    determinism check replays byte-identically
//   trace-replay     an embedded codec-like trace: 12-frame GOPs
//                    (IBBPBBPBBPBB) of per-frame predicts whose
//                    flops/intensity follow the frame type, with one
//                    policy_advise at each GOP boundary (objective
//                    cycling min_energy/min_time/min_edp, period = 2x
//                    the GOP's nominal time). Connections replay the
//                    same trace from staggered offsets, so the mix is
//                    cache-heavy the way a steady control loop is; all
//                    replies are cacheable and replay byte-identically
//
// Modes:
//   TCP (default)  open --connections non-blocking sockets to a running
//                  archline_serverd, multiplexed over --threads client
//                  threads via poll(), each pipelining --pipeline
//                  requests deep — so 64+ concurrent connections cost
//                  the client a handful of threads, and the server's
//                  event loop is exercised by real concurrency, not
//                  just pipelining on one socket
//   --inproc       run the Server inside this process and call it
//                  directly from --connections threads (no sockets; for
//                  sandboxes and CI)
//
// Reports: achieved req/s, client-side batch latency, the server's own
// p50/p95/p99 and cache hit rate (via a "stats" request), and a
// determinism check (byte-identical responses for repeated requests).
// All randomness is PCG32 with a fixed seed, so two runs issue the
// identical request stream.
//
// --json replaces the human report with a single JSON summary object on
// stdout (machine-readable: req/s, latency percentiles, cache hit/miss
// split, determinism) so CI can archive the run as an artifact.

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sim/request_pools.hpp"
#include "sim/tcp_client.hpp"
#include "stats/descriptive.hpp"
#include "stats/rng.hpp"

namespace {

using namespace archline;

struct Config {
  std::string host = "127.0.0.1";
  std::uint16_t port = 7411;
  int connections = 4;
  int threads = 0;  ///< client threads; 0 = min(connections, hw)
  long requests = 200000;
  int pipeline = 256;
  int keys = 64;          ///< distinct predict requests in the pool
  int fit_keys = 4;       ///< distinct fit requests in the pool
  double fit_frac = 0.10;
  std::uint64_t seed = 42;
  std::string scenario = "mixed";  ///< one of the --scenario names above
  bool inproc = false;
  bool json = false;  ///< emit one JSON summary object instead of text
};

/// The request pools a connection draws from; which ones are used
/// depends on the scenario.
struct Pools {
  std::vector<std::string> predicts;
  std::vector<std::string> fits;
  std::vector<std::string> observes;
  std::vector<std::string> params;
  std::vector<std::string> batches;  ///< batch-predict scenario only
  std::vector<std::string> trace;    ///< trace-replay scenario only
};

/// The deterministic request stream: thread t's k-th request.
const std::string& pick_request(const std::vector<std::string>& predicts,
                                const std::vector<std::string>& fits,
                                double fit_frac, stats::Rng& rng) {
  if (rng.uniform() < fit_frac)
    return fits[static_cast<std::size_t>(rng.below(fits.size()))];
  return predicts[static_cast<std::size_t>(rng.below(predicts.size()))];
}

/// observe-heavy mix: 70% observe / 20% predict / 10% params.
const std::string& pick_observe_heavy(const Pools& pools, stats::Rng& rng) {
  const double r = rng.uniform();
  if (r < 0.70)
    return pools
        .observes[static_cast<std::size_t>(rng.below(pools.observes.size()))];
  if (r < 0.90)
    return pools
        .predicts[static_cast<std::size_t>(rng.below(pools.predicts.size()))];
  return pools.params[static_cast<std::size_t>(rng.below(pools.params.size()))];
}

// ---- Shared accounting ----------------------------------------------------

struct Totals {
  std::atomic<long> ok{0};
  std::atomic<long> errors{0};
  std::atomic<long> overloaded{0};
  std::mutex latency_mutex;
  std::vector<double> batch_latencies_s;  ///< per pipelined batch
  std::mutex errors_mutex;
  /// Every non-ok reply by its wire "error" code (includes
  /// "overloaded"), plus "unanswered" for requests that died with their
  /// connection — field-compatible with CampaignReport.errors_by_code.
  std::map<std::string, long> errors_by_code;

  void count(const std::string& body) {
    if (sim::reply_ok(body)) {
      ok.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::string_view code = sim::reply_error_code(body);
    if (code == "overloaded")
      overloaded.fetch_add(1, std::memory_order_relaxed);
    else
      errors.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(errors_mutex);
    ++errors_by_code[std::string(code)];
  }

  /// Requests that will never see a reply (connection failed or died).
  void count_unanswered(long n) {
    if (n <= 0) return;
    errors.fetch_add(n, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(errors_mutex);
    errors_by_code["unanswered"] += n;
  }

  void record_batch_latency(double s) {
    std::lock_guard<std::mutex> lock(latency_mutex);
    batch_latencies_s.push_back(s);
  }
};

// ---- TCP client ----------------------------------------------------------

/// One non-blocking pipelined connection, multiplexed with its
/// siblings on a client thread. The request stream is a pure function
/// of (seed, global connection index), so the traffic is identical no
/// matter how connections are spread over threads.
struct ClientConn {
  int fd = -1;
  stats::Rng rng{0, 0};
  long remaining = 0;  ///< requests not yet placed in the outbox
  long awaiting = 0;   ///< responses outstanding for the current batch
  double fit_frac = 0.0;       ///< this connection's request mix
  int pipeline = 1;            ///< this connection's batch depth
  bool flood = false;          ///< heavy-starvation: unique-id fits only
  bool observe_heavy = false;  ///< 70/20/10 observe/predict/params mix
  bool batch_predict = false;  ///< predict_batch requests only
  bool trace_replay = false;   ///< sequential GOP trace, no RNG
  std::size_t trace_at = 0;    ///< next trace line (wraps)
  bool record_latency = true;  ///< flood batches stay out of the stats
  long next_unique = 0;        ///< id counter for cache-defeating fits
  std::string outbox;
  std::string inbox;
  std::chrono::steady_clock::time_point batch_start;
  bool failed = false;

  [[nodiscard]] bool done() const noexcept {
    return failed || (remaining == 0 && awaiting == 0 && outbox.empty());
  }
};

/// Drives `conns` (already connected, non-blocking) to completion with
/// a single poll() loop: each connection independently sends a
/// pipelined batch, collects its responses, records the batch latency,
/// and starts the next batch.
void tcp_multiplex_worker(const Pools& pools, std::vector<ClientConn>& conns,
                          Totals& totals) {
  const auto fill_batch = [&](ClientConn& c) {
    const long batch = std::min<long>(c.remaining, c.pipeline);
    for (long i = 0; i < batch; ++i) {
      if (c.flood)
        c.outbox += sim::with_unique_id(
            pools.fits[static_cast<std::size_t>(
                c.rng.below(pools.fits.size()))],
            ++c.next_unique);
      else if (c.observe_heavy)
        c.outbox += pick_observe_heavy(pools, c.rng);
      else if (c.batch_predict)
        c.outbox += pools.batches[static_cast<std::size_t>(
            c.rng.below(pools.batches.size()))];
      else if (c.trace_replay)
        c.outbox += pools.trace[c.trace_at++ % pools.trace.size()];
      else
        c.outbox += pick_request(pools.predicts, pools.fits, c.fit_frac,
                                 c.rng);
      c.outbox += '\n';
    }
    c.remaining -= batch;
    c.awaiting = batch;
    c.batch_start = std::chrono::steady_clock::now();
  };
  const auto fail = [&](ClientConn& c) {
    totals.count_unanswered(c.remaining + c.awaiting);
    c.failed = true;
    ::close(c.fd);
    c.fd = -1;
  };

  for (ClientConn& c : conns)
    if (!c.failed && c.remaining > 0) fill_batch(c);

  std::vector<pollfd> pfds;
  std::vector<ClientConn*> active;
  char chunk[65536];
  for (;;) {
    pfds.clear();
    active.clear();
    for (ClientConn& c : conns) {
      if (c.done()) continue;
      short events = 0;
      if (!c.outbox.empty()) events |= POLLOUT;
      if (c.awaiting > 0) events |= POLLIN;
      pfds.push_back(pollfd{c.fd, events, 0});
      active.push_back(&c);
    }
    if (active.empty()) break;
    const int ready = ::poll(pfds.data(), pfds.size(), 10000);
    if (ready < 0) {
      if (errno == EINTR) continue;
      for (ClientConn* c : active) fail(*c);
      break;
    }
    if (ready == 0) {  // nothing moved for 10 s: server is wedged
      for (ClientConn* c : active) fail(*c);
      break;
    }
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      ClientConn& c = *active[i];
      const short got = pfds[i].revents;
      if (got & (POLLERR | POLLHUP | POLLNVAL)) {
        fail(c);
        continue;
      }
      if ((got & POLLOUT) && !c.outbox.empty()) {
        const ssize_t n = ::send(c.fd, c.outbox.data(), c.outbox.size(),
                                 MSG_NOSIGNAL);
        if (n < 0) {
          if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
            fail(c);
            continue;
          }
        } else {
          c.outbox.erase(0, static_cast<std::size_t>(n));
        }
      }
      if ((got & POLLIN) && c.awaiting > 0) {
        const ssize_t n = ::recv(c.fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
          if (n < 0 &&
              (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
            continue;
          fail(c);
          continue;
        }
        c.inbox.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t nl = c.inbox.find('\n', start);
             nl != std::string::npos && c.awaiting > 0;
             nl = c.inbox.find('\n', start)) {
          totals.count(c.inbox.substr(start, nl - start));
          start = nl + 1;
          --c.awaiting;
        }
        c.inbox.erase(0, start);
        if (c.awaiting == 0) {
          if (c.record_latency)
            totals.record_batch_latency(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - c.batch_start)
                    .count());
          if (c.remaining > 0) fill_batch(c);
        }
      }
    }
  }
  for (ClientConn& c : conns)
    if (c.fd >= 0) ::close(c.fd);
}

// ---- In-process mode ------------------------------------------------------

void inproc_worker(const Config& cfg, int thread_id, serve::Server& server,
                   const Pools& pools, long requests, Totals& totals) {
  const bool observe_heavy = cfg.scenario == "observe-heavy";
  const bool batch_predict = cfg.scenario == "batch-predict";
  const bool trace_replay = cfg.scenario == "trace-replay";
  stats::Rng rng(cfg.seed, static_cast<std::uint64_t>(thread_id));
  // Trace replay is sequential; stagger threads one GOP apart so they
  // exercise distinct cache lines while still overlapping.
  std::size_t trace_at = static_cast<std::size_t>(thread_id) * 13;
  for (long i = 0; i < requests; ++i) {
    const std::string& line =
        trace_replay
            ? pools.trace[trace_at++ % pools.trace.size()]
        : batch_predict
            ? pools.batches[static_cast<std::size_t>(
                  rng.below(pools.batches.size()))]
        : observe_heavy
            ? pick_observe_heavy(pools, rng)
            : pick_request(pools.predicts, pools.fits, cfg.fit_frac, rng);
    const auto t0 = std::chrono::steady_clock::now();
    const std::string body = server.handle_now(line);
    totals.count(body);
    if ((i & 1023) == 0)
      totals.record_batch_latency(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count());
  }
}

/// --scenario heavy-starvation, in-process. handle_now() runs Heavy
/// requests inline, so this path goes through Server::submit instead:
/// one flooder thread keeps up to 32 cache-defeating fits in flight on
/// the Heavy pool (bounded by its queue, which bounces the rest), while
/// `connections - 1` threads run closed-loop predicts — each finishes
/// inside submit, on its own thread — and record every per-request
/// latency, the number inline Light execution keeps flat.
void inproc_starvation(const Config& cfg, serve::Server& server,
                       const std::vector<std::string>& predicts,
                       const std::vector<std::string>& fits, long per_conn,
                       Totals& totals) {
  std::atomic<bool> stop{false};
  std::thread flooder([&] {
    std::atomic<int> inflight{0};
    long n = 0;
    while (!stop.load(std::memory_order_acquire)) {
      if (inflight.load(std::memory_order_acquire) >= 32) {
        std::this_thread::yield();
        continue;
      }
      ++n;
      std::string line = sim::with_unique_id(
          fits[static_cast<std::size_t>(n) % fits.size()], n);
      inflight.fetch_add(1, std::memory_order_acq_rel);
      const bool admitted = server.submit(
          std::move(line), [&totals, &inflight](std::string&& body) {
            totals.count(body);
            inflight.fetch_sub(1, std::memory_order_acq_rel);
          });
      if (!admitted) {  // Heavy queue full — exactly the designed backstop
        inflight.fetch_sub(1, std::memory_order_acq_rel);
        std::this_thread::yield();
      }
    }
    while (inflight.load(std::memory_order_acquire) > 0)
      std::this_thread::yield();
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < cfg.connections - 1; ++t)
    threads.emplace_back([&, t] {
      stats::Rng rng(cfg.seed, static_cast<std::uint64_t>(t + 1));
      for (long i = 0; i < per_conn; ++i) {
        const std::string& line =
            predicts[static_cast<std::size_t>(rng.below(predicts.size()))];
        bool answered = false;
        const auto t0 = std::chrono::steady_clock::now();
        if (!server.submit(line, [&](std::string&& body) {
              totals.count(body);
              answered = true;
            }) ||
            !answered)
          std::abort();  // a Light request must finish inside submit
        totals.record_batch_latency(
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count());
      }
    });
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_release);
  flooder.join();
}

// ---- Report ---------------------------------------------------------------

void print_stats_line(const std::string& stats_body) {
  try {
    const serve::Json stats = serve::Json::parse(stats_body);
    const serve::Json* lat = stats.find("latency");
    const serve::Json* cache = stats.find("cache");
    if (lat) {
      std::printf("server latency     p50 %.1f us   p95 %.1f us   p99 %.1f us\n",
                  lat->number_or("p50_s", 0) * 1e6,
                  lat->number_or("p95_s", 0) * 1e6,
                  lat->number_or("p99_s", 0) * 1e6);
    }
    if (cache) {
      std::printf("server cache       %.0f hits / %.0f misses (hit rate %.3f)\n",
                  cache->number_or("hits", 0), cache->number_or("misses", 0),
                  cache->number_or("hit_rate", 0));
    }
    std::printf("server completed   %.0f (%.0f req/s lifetime)\n",
                stats.number_or("completed", 0), stats.number_or("qps", 0));
  } catch (const std::exception& e) {
    std::printf("stats response unparsable: %s\n", e.what());
  }
}

/// The --json report: one object, schema mirrored by BENCH_serve.json.
/// Server-side fields come from the end-of-run "stats" request and are
/// omitted when it failed (e.g. the server went away).
void print_json_summary(const Config& cfg, Totals& totals, long done,
                        double elapsed, bool deterministic,
                        const std::string& stats_body) {
  serve::Json out = serve::Json::object();
  out.set("bench", "serve_loadgen");
  out.set("mode", cfg.inproc ? "inproc" : "tcp");
  out.set("scenario", cfg.scenario);
  out.set("requests", done);
  out.set("ok", totals.ok.load());
  out.set("errors", totals.errors.load());
  out.set("overloaded", totals.overloaded.load());
  out.set("elapsed_s", elapsed);
  out.set("req_per_s",
          elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0);
  out.set("deterministic", deterministic);
  out.set("seed", cfg.seed);
  {
    const std::vector<double>& lat = totals.batch_latencies_s;
    serve::Json batch = serve::Json::object();
    batch.set("p50_ms", stats::nearest_rank(lat, 0.50) * 1e3);
    batch.set("p95_ms", stats::nearest_rank(lat, 0.95) * 1e3);
    batch.set("p99_ms", stats::nearest_rank(lat, 0.99) * 1e3);
    batch.set("p999_ms", stats::nearest_rank(lat, 0.999) * 1e3);
    batch.set("batches", lat.size());
    batch.set("pipeline", cfg.inproc || cfg.scenario == "heavy-starvation"
                              ? 1
                              : cfg.pipeline);
    out.set("client_batch_latency", std::move(batch));
  }
  {
    std::lock_guard<std::mutex> lock(totals.errors_mutex);
    serve::Json codes = serve::Json::object();
    for (const auto& [code, n] : totals.errors_by_code) codes.set(code, n);
    out.set("errors_by_code", std::move(codes));
  }
  try {
    const serve::Json stats = serve::Json::parse(stats_body);
    if (const serve::Json* lat = stats.find("latency")) {
      serve::Json server_lat = serve::Json::object();
      server_lat.set("p50_ns", lat->number_or("p50_s", 0) * 1e9);
      server_lat.set("p99_ns", lat->number_or("p99_s", 0) * 1e9);
      server_lat.set("p999_ns", lat->number_or("p999_s", 0) * 1e9);
      server_lat.set("sampled", lat->number_or("count", 0));
      out.set("server_latency", std::move(server_lat));
    }
    if (const serve::Json* cache = stats.find("cache")) {
      serve::Json hits = serve::Json::object();
      hits.set("hits", cache->number_or("hits", 0));
      hits.set("misses", cache->number_or("misses", 0));
      hits.set("hit_rate", cache->number_or("hit_rate", 0));
      out.set("server_cache", std::move(hits));
    }
    out.set("server_completed", stats.number_or("completed", 0));
  } catch (const std::exception&) {
    // no stats response; client-side fields stand alone
  }
  std::printf("%s\n", out.dump().c_str());
}

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s [--host H] [--port N] [--connections N]\n"
               "          [--threads N] [--requests N] [--pipeline N]\n"
               "          [--keys N] [--fit-frac F] [--seed S]\n"
               "          [--scenario mixed|heavy-starvation|observe-heavy|"
               "batch-predict|trace-replay]\n"
               "          [--inproc] [--json]\n",
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
    if (arg == "--host") cfg.host = value();
    else if (arg == "--port")
      cfg.port = static_cast<std::uint16_t>(std::atoi(value()));
    else if (arg == "--connections") cfg.connections = std::atoi(value());
    else if (arg == "--threads") cfg.threads = std::atoi(value());
    else if (arg == "--requests") cfg.requests = std::atol(value());
    else if (arg == "--pipeline") cfg.pipeline = std::atoi(value());
    else if (arg == "--keys") cfg.keys = std::atoi(value());
    else if (arg == "--fit-frac") cfg.fit_frac = std::atof(value());
    else if (arg == "--seed")
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value()));
    else if (arg == "--scenario") cfg.scenario = value();
    else if (arg == "--inproc") cfg.inproc = true;
    else if (arg == "--json") cfg.json = true;
    else if (arg == "--help" || arg == "-h") usage(argv[0], 0);
    else usage(argv[0], 2);
  }
  if (cfg.connections < 1 || cfg.requests < 1 || cfg.pipeline < 1 ||
      cfg.keys < 1 || cfg.fit_frac < 0.0 || cfg.fit_frac > 1.0 ||
      cfg.threads < 0)
    usage(argv[0], 2);
  if (cfg.scenario != "mixed" && cfg.scenario != "heavy-starvation" &&
      cfg.scenario != "observe-heavy" && cfg.scenario != "batch-predict" &&
      cfg.scenario != "trace-replay")
    usage(argv[0], 2);
  const bool starvation = cfg.scenario == "heavy-starvation";
  const bool observe_heavy = cfg.scenario == "observe-heavy";
  const bool batch_predict = cfg.scenario == "batch-predict";
  const bool trace_replay = cfg.scenario == "trace-replay";
  // The starvation scenario needs one flooder plus at least one
  // predicting client.
  if (starvation) cfg.connections = std::max(cfg.connections, 2);
  if (cfg.threads == 0)
    cfg.threads = std::min<int>(
        cfg.connections,
        std::max(1u, std::thread::hardware_concurrency()));
  cfg.threads = std::min(cfg.threads, cfg.connections);

  Pools pools;
  pools.predicts = sim::make_predict_pool(cfg.keys);
  pools.fits = sim::make_fit_pool(cfg.fit_keys, cfg.seed);
  if (observe_heavy) {
    pools.observes = sim::make_observe_pool(cfg.keys, cfg.seed);
    pools.params = sim::make_params_pool();
  }
  if (batch_predict) pools.batches = sim::make_batch_pool(cfg.keys);
  if (trace_replay) pools.trace = sim::make_trace_pool();
  Totals totals;

  const long per_conn = cfg.requests / cfg.connections;
  if (cfg.json) {
    // banner suppressed: stdout carries exactly one JSON object
  } else if (cfg.inproc)
    std::printf("serve_loadgen: %ld requests, %d threads (in-process), "
                "%d predict keys + %d fit keys, fit fraction %.2f, "
                "seed %llu\n",
                per_conn * cfg.connections, cfg.connections, cfg.keys,
                cfg.fit_keys, cfg.fit_frac,
                static_cast<unsigned long long>(cfg.seed));
  else
    std::printf("serve_loadgen: %ld requests, %d connections on %d client "
                "threads, pipeline %d, %d predict keys + %d fit keys, "
                "fit fraction %.2f, seed %llu\n",
                per_conn * cfg.connections, cfg.connections, cfg.threads,
                cfg.pipeline, cfg.keys, cfg.fit_keys, cfg.fit_frac,
                static_cast<unsigned long long>(cfg.seed));

  if (!cfg.json && starvation)
    std::printf("scenario           heavy-starvation (one client floods "
                "cache-defeating fits; the rest send predicts one at a "
                "time; batch latency = per-predict latency)\n");
  if (!cfg.json && observe_heavy)
    std::printf("scenario           observe-heavy (70%% observe / 20%% "
                "predict / 10%% params; every connection has its own "
                "PCG32 stream)\n");
  if (!cfg.json && batch_predict)
    std::printf("scenario           batch-predict (pure predict_batch "
                "traffic, batch sizes 1/8/64/256 spread over the key "
                "pool; crosses the Light/Heavy classifier boundary)\n");
  if (!cfg.json && trace_replay)
    std::printf("scenario           trace-replay (codec-like GOP trace: "
                "12 predicts per GOP + policy_advise at each boundary, "
                "%zu lines per cycle, connections staggered one GOP "
                "apart)\n",
                pools.trace.size());

  double elapsed = 0.0;
  std::string stats_body;
  bool deterministic = true;
  // Determinism probes: each line is sent twice and both replies must be
  // byte-identical. Under observe-heavy only the observe is probed: its
  // reply is batch-local by design, while a predict under the live
  // resolver may legitimately change between calls. trace[0] is a
  // policy_advise and trace[1] a predict, both cacheable.
  using Probes = std::vector<const std::string*>;
  const Probes probes =
      observe_heavy   ? Probes{&pools.observes[0]}
      : batch_predict ? Probes{&pools.batches[0]}
      : trace_replay  ? Probes{&pools.trace[0], &pools.trace[1]}
                      : Probes{&pools.predicts[0], &pools.fits[0]};

  if (cfg.inproc) {
    serve::ServerOptions server_options;
    // observe-heavy exercises the full live-learning loop: the
    // background resolver re-solves and publishes while ingest and
    // cached reads are in flight.
    if (observe_heavy) server_options.refit_interval_ms = 50;
    serve::Server server(server_options);
    server.start();
    for (const std::string* line : probes) {
      const std::string first = server.handle_now(*line);
      deterministic = deterministic && first == server.handle_now(*line);
    }
    const auto t0 = std::chrono::steady_clock::now();
    if (starvation) {
      inproc_starvation(cfg, server, pools.predicts, pools.fits, per_conn,
                        totals);
    } else {
      std::vector<std::thread> threads;
      for (int t = 0; t < cfg.connections; ++t)
        threads.emplace_back([&, t] {
          inproc_worker(cfg, t, server, pools, per_conn, totals);
        });
      for (auto& t : threads) t.join();
    }
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    stats_body = server.handle_now(R"({"type":"stats"})");
    server.shutdown();
  } else {
    const int probe = sim::connect_tcp(cfg.host, cfg.port);
    if (probe < 0) {
      std::fprintf(stderr,
                   "loadgen: cannot connect to %s:%u — is archline_serverd "
                   "running? (or use --inproc)\n",
                   cfg.host.c_str(), cfg.port);
      return 1;
    }
    for (const std::string* line : probes) {
      std::string first, second;
      deterministic = deterministic &&
                      sim::request_once(probe, *line, first) &&
                      sim::request_once(probe, *line, second) &&
                      first == second;
    }
    ::close(probe);

    // Open every connection up front (the server's accept path is the
    // thing under test), make them non-blocking, and deal them out to
    // the client threads in contiguous groups.
    std::vector<std::vector<ClientConn>> groups(
        static_cast<std::size_t>(cfg.threads));
    for (int i = 0; i < cfg.connections; ++i) {
      ClientConn c;
      c.fd = sim::connect_tcp(cfg.host, cfg.port);
      if (c.fd < 0) {
        std::fprintf(stderr, "loadgen: connection %d failed: %s\n", i,
                     std::strerror(errno));
        totals.count_unanswered(per_conn);
        continue;
      }
      const int flags = ::fcntl(c.fd, F_GETFL, 0);
      ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
      c.rng = stats::Rng(cfg.seed, static_cast<std::uint64_t>(i));
      c.remaining = per_conn;
      c.fit_frac = cfg.fit_frac;
      c.pipeline = cfg.pipeline;
      if (starvation) {
        if (i == 0) {  // connection 0 is the flooder
          c.flood = true;
          c.record_latency = false;
        } else {  // the rest send predicts one at a time
          c.fit_frac = 0.0;
          c.pipeline = 1;
        }
      }
      c.observe_heavy = observe_heavy;
      c.batch_predict = batch_predict;
      c.trace_replay = trace_replay;
      // Stagger connections one 13-line GOP apart along the trace.
      if (trace_replay) c.trace_at = static_cast<std::size_t>(i) * 13;
      groups[static_cast<std::size_t>(i % cfg.threads)].push_back(
          std::move(c));
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (int t = 0; t < cfg.threads; ++t)
      threads.emplace_back([&, t] {
        tcp_multiplex_worker(pools, groups[static_cast<std::size_t>(t)],
                             totals);
      });
    for (auto& t : threads) t.join();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    const int stats_fd = sim::connect_tcp(cfg.host, cfg.port);
    if (stats_fd >= 0) {
      (void)sim::request_once(stats_fd, R"({"type":"stats"})", stats_body);
      ::close(stats_fd);
    }
  }

  const long done = totals.ok.load() + totals.errors.load() +
                    totals.overloaded.load();
  // Every client thread has joined: sort once for the percentiles.
  std::sort(totals.batch_latencies_s.begin(), totals.batch_latencies_s.end());
  if (cfg.json) {
    print_json_summary(cfg, totals, done, elapsed, deterministic, stats_body);
  } else {
    std::printf("\nelapsed            %.3f s\n", elapsed);
    std::printf("completed          %ld (%ld ok, %ld errors, %ld overloaded)\n",
                done, totals.ok.load(), totals.errors.load(),
                totals.overloaded.load());
    std::printf("throughput         %.0f req/s\n",
                elapsed > 0 ? static_cast<double>(done) / elapsed : 0.0);
    const std::vector<double>& lat = totals.batch_latencies_s;
    std::printf("client batch lat   p50 %.2f ms   p95 %.2f ms   p99 %.2f ms "
                "(%zu batches of <= %d)\n",
                stats::nearest_rank(lat, 0.50) * 1e3,
                stats::nearest_rank(lat, 0.95) * 1e3,
                stats::nearest_rank(lat, 0.99) * 1e3, lat.size(),
                cfg.inproc || starvation ? 1 : cfg.pipeline);
    std::printf("deterministic      %s\n", deterministic ? "yes" : "NO");
    if (!stats_body.empty()) print_stats_line(stats_body);
  }

  return (totals.errors.load() == 0 && deterministic) ? 0 : 1;
}
