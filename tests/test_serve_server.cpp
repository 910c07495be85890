// Server engine tests: inline Light execution and the Heavy worker
// pool, response caching and metrics on the live path, backpressure,
// ordered delivery, the stdio transport, and graceful shutdown (every
// admitted request completes, the queue drains, counters reconcile).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/clock.hpp"

namespace {

using namespace archline::serve;

const char* kPredict =
    R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":4})";

/// A small fit request (6 observations): Heavy class, a few hundred µs
/// of solver work. Distinct `seed` values defeat the response cache.
std::string fit_request(int seed) {
  Json obs = Json::array();
  for (int p = 0; p < 6; ++p) {
    const double intensity = std::exp2(-2.0 + p);
    const double flops = 1e9 + seed;
    const double bytes = flops / intensity;
    const double t = std::max(flops * 3e-11, bytes * 1.2e-10);
    Json row = Json::object();
    row.set("flops", flops);
    row.set("bytes", bytes);
    row.set("seconds", t);
    row.set("joules", flops * 4.7e-11 + bytes * 3.8e-10 + 2.7 * t);
    obs.push_back(std::move(row));
  }
  Json req = Json::object();
  req.set("type", "fit");
  req.set("observations", std::move(obs));
  return req.dump();
}

ServerOptions small_options() {
  ServerOptions o;
  o.threads = 4;
  o.queue_capacity = 64;
  o.cache_capacity = 128;
  o.cache_shards = 4;
  return o;
}

TEST(ServeServer, HandleNowEvaluatesAndCaches) {
  Server server(small_options());
  const std::string a = server.handle_now(kPredict);
  const std::string b = server.handle_now(kPredict);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(Json::parse(a).bool_or("ok", false));
  const auto cache = server.cache_stats();
  EXPECT_EQ(cache.hits, 1u);
  EXPECT_EQ(cache.misses, 1u);
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_EQ(snap.by_endpoint[Registry::instance().find("predict")->id], 2u);
}

TEST(ServeServer, CacheKeyIgnoresLineFraming) {
  Server server(small_options());
  (void)server.handle_now(std::string(kPredict));
  (void)server.handle_now(std::string(kPredict) + "\r");
  (void)server.handle_now("  " + std::string(kPredict));
  EXPECT_EQ(server.cache_stats().hits, 2u);
}

TEST(ServeServer, ErrorsAreNotCached) {
  Server server(small_options());
  (void)server.handle_now("garbage");
  (void)server.handle_now("garbage");
  const auto cache = server.cache_stats();
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.entries, 0u);
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.errors, 2u);
}

// A line past max_request_bytes is answered too_large without a cache
// probe (no hash of the megabyte); it still counts as one miss per line,
// so hits + misses stays the number of lines served.
TEST(ServeServer, OversizedLineIsTooLargeAndCountsAsAMiss) {
  Server server(small_options());
  const std::string line(server.options().limits.max_request_bytes + 1, 'x');
  ASSERT_GE(line.size(), std::size_t{1} << 20);
  for (int i = 0; i < 2; ++i) {
    const Json reply = Json::parse(server.handle_now(line));
    EXPECT_FALSE(reply.bool_or("ok", true));
    EXPECT_EQ(reply.string_or("error", ""), "too_large");
  }
  (void)server.handle_now(kPredict);
  const auto cache = server.cache_stats();
  EXPECT_EQ(cache.hits, 0u);
  EXPECT_EQ(cache.misses, 3u);
  EXPECT_EQ(cache.insertions, 1u);  // only the predict
  EXPECT_EQ(cache.entries, 1u);
  EXPECT_EQ(server.metrics().snapshot().errors, 2u);
}

TEST(ServeServer, StatsRequestReflectsLiveCounters) {
  Server server(small_options());
  (void)server.handle_now(kPredict);
  (void)server.handle_now(kPredict);
  const Json stats = Json::parse(server.handle_now(R"({"type":"stats"})"));
  EXPECT_TRUE(stats.bool_or("ok", false));
  EXPECT_EQ(stats.find("by_type")->number_or("predict", 0), 2.0);
  EXPECT_DOUBLE_EQ(stats.find("cache")->number_or("hits", -1), 1.0);
  EXPECT_GE(stats.find("latency")->number_or("count", 0), 2.0);
  // Stats responses must never be cached (they change between calls).
  (void)server.handle_now(R"({"type":"stats"})");
  EXPECT_EQ(server.cache_stats().entries, 1u);  // only the predict
}

TEST(ServeServer, WorkerPoolCompletesAllSubmissions) {
  Server server(small_options());
  server.start();
  constexpr int kRequests = 300;
  std::atomic<int> done{0};
  std::atomic<int> ok{0};
  std::mutex m;
  std::condition_variable cv;
  for (int i = 0; i < kRequests; ++i) {
    // Vary intensity so some requests miss the cache and some hit;
    // every tenth is a fit, which runs on the pool.
    Json req = Json::object();
    req.set("type", "predict");
    req.set("platform", "GTX Titan");
    req.set("intensity", 1.0 + (i % 10));
    const std::string line = i % 10 == 0 ? fit_request(i) : req.dump();
    while (!server.submit(line, [&](std::string&& body) {
      if (Json::parse(body).bool_or("ok", false))
        ok.fetch_add(1, std::memory_order_relaxed);
      if (done.fetch_add(1) + 1 == kRequests) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_one();
      }
    })) {
      // Backpressure: let the pool catch up, then retry.
      std::this_thread::yield();
    }
  }
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return done.load() == kRequests; }));
  EXPECT_EQ(ok.load(), kRequests);
  server.shutdown();
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(kRequests));
}

TEST(ServeServer, BackpressureRejectsWhenQueueFull) {
  ServerOptions options = small_options();
  options.queue_capacity = 8;
  Server server(options);
  // Workers not started: Heavy misses fill the queue and then bounce.
  int admitted = 0;
  std::atomic<int> completed{0};
  while (server.submit(fit_request(admitted),
                       [&](std::string&&) { completed.fetch_add(1); })) {
    ++admitted;
    ASSERT_LE(admitted, 8);
  }
  EXPECT_EQ(admitted, 8);
  EXPECT_GE(server.metrics().snapshot().rejected, 1u);
  EXPECT_EQ(server.metrics().snapshot().queue_peak, 8u);
  // Graceful shutdown drains the queue even though start() never ran:
  // every admitted request's callback still fires.
  server.shutdown();
  EXPECT_EQ(completed.load(), admitted);
  EXPECT_EQ(server.metrics().snapshot().queue_depth, 0u);
}

TEST(ServeServer, GracefulShutdownDrainsInFlightRequests) {
  ServerOptions options = small_options();
  options.threads = 2;
  Server server(options);
  server.start();
  std::atomic<int> completed{0};
  int admitted = 0;
  for (int i = 0; i < 20; ++i) {
    // Distinct fits: all real solver runs on the pool.
    if (server.submit(fit_request(i),
                      [&](std::string&&) { completed.fetch_add(1); }))
      ++admitted;
  }
  server.shutdown();  // must block until the queue is fully drained
  EXPECT_EQ(completed.load(), admitted);
  EXPECT_GT(admitted, 0);
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.completed, static_cast<std::uint64_t>(admitted));
  EXPECT_EQ(snap.queue_depth, 0u);
  // After shutdown, new work is refused.
  EXPECT_FALSE(server.submit(kPredict, [](std::string&&) {}));
}

TEST(ServeServer, ShutdownIsIdempotentAndDestructorSafe) {
  Server server(small_options());
  server.start();
  server.shutdown();
  server.shutdown();  // second call is a no-op
  // Destructor runs shutdown again — must not hang or crash.
}

TEST(ServeServer, RestartAfterShutdownServesAgain) {
  // Regression: shutdown() used to close the queue permanently,
  // so a restarted server spawned workers that exited immediately while
  // submit() rejected everything. start() must reopen the queue. Fits,
  // because only Heavy misses reach the workers.
  Server server(small_options());
  server.start();
  std::atomic<int> completed{0};
  ASSERT_TRUE(server.submit(fit_request(0),
                            [&](std::string&&) { completed.fetch_add(1); }));
  server.shutdown();
  EXPECT_EQ(completed.load(), 1);
  EXPECT_FALSE(server.running());
  // While shut down, admission is refused…
  EXPECT_FALSE(server.submit(kPredict, [](std::string&&) {}));

  // …and a restart serves exactly like a fresh server.
  server.start();
  EXPECT_TRUE(server.running());
  std::mutex m;
  std::condition_variable cv;
  std::string body;
  ASSERT_TRUE(server.submit(fit_request(1), [&](std::string&& response) {
    {
      std::lock_guard<std::mutex> lock(m);
      body = std::move(response);
    }
    cv.notify_one();
  }));
  std::unique_lock<std::mutex> lock(m);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return !body.empty(); }));
  EXPECT_TRUE(Json::parse(body).bool_or("ok", false));
  server.shutdown();
  EXPECT_EQ(server.metrics().snapshot().completed, 2u);
}

TEST(ServeServer, ExpiredDeadlineAnswersWithoutExecuting) {
  // Workers not started: Heavy jobs sit in the queue past their
  // deadline, and the shutdown drain must answer them with the canned
  // deadline error (same code path the worker loop uses).
  archline::sim::SimClock clock;
  ServerOptions options = small_options();
  options.request_deadline_ms = 1;
  options.clock = &clock;
  Server server(options);
  std::vector<std::string> bodies;
  const auto keep = [&](std::string&& b) { bodies.push_back(std::move(b)); };
  ASSERT_TRUE(server.submit(fit_request(0), keep));
  clock.advance_ms(2);  // the first job is now 1 ms past its deadline
  // Admitted after the advance: still in time, so it must execute
  // normally even on the drain path.
  ASSERT_TRUE(server.submit(fit_request(1), keep));
  server.shutdown();
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(Json::parse(bodies[0]).string_or("error", ""),
            "deadline_exceeded");
  EXPECT_TRUE(Json::parse(bodies[1]).bool_or("ok", false));
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  // The expired job was answered, not executed: only one completion.
  EXPECT_EQ(snap.completed, 1u);
}

TEST(ServeServer, DefaultDeadlineComesFromOptions) {
  // On a SimClock the deadline is exact: one tick past the configured
  // 10 ms expires the queued job; see the boundary test below for the
  // other side. Workers never start, so the only executor is the
  // shutdown drain — the expiry decision is fully deterministic.
  archline::sim::SimClock clock;
  ServerOptions options = small_options();
  options.request_deadline_ms = 10;
  options.clock = &clock;
  Server server(options);
  std::string body;
  ASSERT_TRUE(server.submit(fit_request(0),
                            [&](std::string&& b) { body = std::move(b); }));
  clock.advance(std::chrono::milliseconds(10) + std::chrono::nanoseconds(1));
  server.shutdown();  // drains; the job expired 1 ns ago
  EXPECT_EQ(Json::parse(body).string_or("error", ""), "deadline_exceeded");
  EXPECT_EQ(server.metrics().snapshot().deadline_exceeded, 1u);
}

TEST(ServeServer, DeadlineBoundaryIsExclusive) {
  // run_job expires a queued request only when now() is strictly past
  // its deadline: a job drained exactly AT the deadline still executes.
  // Unobservable with wall clocks, a one-liner with a SimClock.
  archline::sim::SimClock clock;
  ServerOptions options = small_options();
  options.request_deadline_ms = 10;
  options.clock = &clock;
  Server server(options);
  std::string body;
  ASSERT_TRUE(server.submit(fit_request(0),
                            [&](std::string&& b) { body = std::move(b); }));
  clock.advance_ms(10);  // exactly at the deadline, not past it
  server.shutdown();
  EXPECT_TRUE(Json::parse(body).bool_or("ok", false));
  EXPECT_EQ(server.metrics().snapshot().deadline_exceeded, 0u);
}

TEST(ServeServer, RunQueuedRunsOneJobInFifoOrderOnTheCaller) {
  // Workers not started: run_queued is the only executor. It pops one
  // job per call, oldest first, applies the queue deadline on the
  // injected clock, and reports an empty queue with false.
  archline::sim::SimClock clock;
  ServerOptions options = small_options();
  options.request_deadline_ms = 10;
  options.clock = &clock;
  Server server(options);
  std::vector<std::string> bodies;
  const auto keep = [&](std::string&& b) { bodies.push_back(std::move(b)); };
  EXPECT_FALSE(server.run_queued());
  ASSERT_TRUE(server.submit(fit_request(0), keep));
  clock.advance_ms(5);
  ASSERT_TRUE(server.submit(fit_request(1), keep));  // deadline: 15 ms

  ASSERT_TRUE(server.run_queued());  // job 0, 5 ms into its 10 ms
  ASSERT_EQ(bodies.size(), 1u);
  EXPECT_EQ(bodies[0], server.handle_now(fit_request(0)));
  clock.advance_ms(11);  // job 1 is now 1 ms past its deadline
  ASSERT_TRUE(server.submit(fit_request(2), keep));  // deadline: 26 ms
  ASSERT_TRUE(server.run_queued());
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[1], deadline_exceeded_body());
  ASSERT_TRUE(server.run_queued());
  ASSERT_EQ(bodies.size(), 3u);
  EXPECT_EQ(bodies[2], server.handle_now(fit_request(2)));
  EXPECT_FALSE(server.run_queued());
  EXPECT_EQ(bodies.size(), 3u);

  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.deadline_exceeded, 1u);
  EXPECT_EQ(snap.queue_depth, 0u);
  EXPECT_EQ(snap.queue_peak, 2u);
}

TEST(ServeServer, OrderedWriterRestoresSubmissionOrder) {
  std::vector<std::string> out;
  const auto sink = [&](std::string&& body) { out.push_back(std::move(body)); };
  OrderedWriter writer;
  const auto s0 = writer.next_sequence();
  const auto s1 = writer.next_sequence();
  const auto s2 = writer.next_sequence();
  writer.complete(s2, "two", sink);   // finishes first, must be buffered
  EXPECT_TRUE(out.empty());
  writer.complete(s0, "zero", sink);  // releases zero only
  EXPECT_EQ(out, (std::vector<std::string>{"zero"}));
  writer.complete(s1, "one", sink);   // releases one, then buffered two
  // Every reserved sequence number was delivered, once, in order.
  EXPECT_EQ(out, (std::vector<std::string>{"zero", "one", "two"}));
}

TEST(ServeServer, RunStreamPreservesOrderAndHandlesBadLines) {
  Server server(small_options());
  server.start();
  std::istringstream in(
      std::string(kPredict) + "\n" +
      "not json\n" +
      "\n" +  // blank lines are skipped, not answered
      R"({"type":"platforms"})" + "\n" +
      R"({"type":"stats"})" + "\n");
  std::ostringstream out;
  run_stream(server, in, out);
  server.shutdown();
  std::vector<std::string> lines;
  std::istringstream result(out.str());
  for (std::string line; std::getline(result, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("type", ""), "predict");
  EXPECT_EQ(Json::parse(lines[1]).string_or("error", ""), "parse_error");
  EXPECT_EQ(Json::parse(lines[2]).string_or("type", ""), "platforms");
  EXPECT_EQ(Json::parse(lines[3]).string_or("type", ""), "stats");
}

// ---- Light inline, Heavy on the pool ----------------------------------------

TEST(ServeServer, LightRunsOnTheSubmittingThreadHeavyOnThePool) {
  // The execution split itself: a Light request's done fires on the
  // caller's thread before submit returns; a Heavy miss's fires later,
  // on a worker.
  Server server(small_options());
  server.start();
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id light_thread;
  ASSERT_TRUE(server.submit(kPredict, [&](std::string&&) {
    light_thread = std::this_thread::get_id();
  }));
  EXPECT_EQ(light_thread, caller);

  std::mutex m;
  std::condition_variable cv;
  std::thread::id heavy_thread;
  bool heavy_done = false;
  ASSERT_TRUE(server.submit(fit_request(0), [&](std::string&&) {
    std::lock_guard<std::mutex> lock(m);
    heavy_thread = std::this_thread::get_id();
    heavy_done = true;
    cv.notify_one();
  }));
  {
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return heavy_done; }));
  }
  EXPECT_NE(heavy_thread, caller);
  server.shutdown();
}

TEST(ServeServer, ServeInlineProbesOnceAndHeavyFillsTheCallersPartition) {
  // serve_inline probes the caller's partition exactly once; a Heavy
  // miss renders nothing, and enqueue's worker fills that same
  // partition, so the repeat is a hit there.
  Server server(small_options());
  server.start();
  auto partition = std::make_shared<ShardedLruCache>(64, 4);
  server.add_cache_partition(partition);
  std::string out = "stale";
  const std::string fit = fit_request(0);
  ASSERT_EQ(server.serve_inline(fit, *partition, out),
            Server::Inline::HeavyMiss);
  EXPECT_EQ(partition->stats().misses, 1u);

  std::mutex m;
  std::condition_variable cv;
  std::string body;
  ASSERT_TRUE(server.enqueue(fit,
                             [&](std::string&& b) {
                               std::lock_guard<std::mutex> lock(m);
                               body = std::move(b);
                               cv.notify_one();
                             },
                             partition));
  {
    std::unique_lock<std::mutex> lock(m);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return !body.empty(); }));
  }
  EXPECT_EQ(partition->stats().misses, 1u);  // the worker did not re-probe
  ASSERT_EQ(server.serve_inline(fit, *partition, out), Server::Inline::Hit);
  EXPECT_EQ(out, body);
  EXPECT_EQ(server.serve_inline(kPredict, *partition, out),
            Server::Inline::Evaluated);
  EXPECT_EQ(server.serve_inline(kPredict, *partition, out),
            Server::Inline::Hit);
  // The server's own partition was never touched; the stats sum both.
  EXPECT_EQ(server.cache()->stats().misses, 0u);
  EXPECT_EQ(server.cache_stats().hits, 2u);
  EXPECT_EQ(server.cache_stats().misses, 2u);
  server.shutdown();
  server.remove_cache_partition(partition.get());
}

TEST(ServeServer, HeavyLaneFullStillAdmitsLightRequests) {
  // Workers not started: fits pile up in the Heavy queue. Once it is
  // full, fit submissions bounce while predicts keep being answered —
  // they run inline and never queue.
  ServerOptions options = small_options();
  options.queue_capacity = 2;
  Server server(options);
  std::atomic<int> completed{0};
  const auto count = [&](std::string&&) { completed.fetch_add(1); };
  ASSERT_TRUE(server.submit(fit_request(0), count));
  ASSERT_TRUE(server.submit(fit_request(1), count));
  EXPECT_FALSE(server.submit(fit_request(2), count));  // queue full
  for (int i = 0; i < 4; ++i)
    EXPECT_TRUE(server.submit(kPredict, count)) << i;
  EXPECT_EQ(completed.load(), 4);  // the predicts, already answered
  const auto snap = server.metrics().snapshot();
  EXPECT_EQ(snap.rejected, 1u);
  EXPECT_EQ(snap.queue_peak, 2u);
  server.shutdown();  // drain answers the two queued fits
  EXPECT_EQ(completed.load(), 6);
}

TEST(ServeServer, ZeroHeavyLaneCapacityIsRejected) {
  // There is no queue-less mode: Heavy work always has room for one.
  ServerOptions options = small_options();
  options.queue_capacity = 0;
  EXPECT_THROW({ Server server(options); }, std::invalid_argument);
}

TEST(ServeServer, PredictP99StaysBoundedUnderFitFlood) {
  // The starvation property, in miniature: saturate the Heavy queue
  // with fits, then check that concurrently submitted predicts all
  // complete and none is stuck behind the flood. Predicts run on the
  // submitting thread, so the one busy worker cannot delay them.
  ServerOptions options = small_options();
  options.threads = 4;
  options.heavy_workers = 1;
  options.queue_capacity = 16;
  Server server(options);
  server.start();
  std::atomic<int> fit_done{0};
  std::atomic<int> predict_done{0};
  int fits_admitted = 0;
  for (int i = 0; i < 16; ++i)
    if (server.submit(fit_request(i),
                      [&](std::string&&) { fit_done.fetch_add(1); }))
      ++fits_admitted;
  std::mutex m;
  std::condition_variable cv;
  constexpr int kPredicts = 100;
  for (int i = 0; i < kPredicts; ++i) {
    Json req = Json::object();
    req.set("type", "predict");
    req.set("platform", "GTX Titan");
    req.set("intensity", 1.0 + i);
    ASSERT_TRUE(server.submit(req.dump(), [&](std::string&&) {
      if (predict_done.fetch_add(1) + 1 == kPredicts) {
        std::lock_guard<std::mutex> lock(m);
        cv.notify_one();
      }
    }));
  }
  {
    std::unique_lock<std::mutex> lock(m);
    // All predicts complete long before the fit backlog could drain.
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return predict_done.load() == kPredicts; }));
  }
  server.shutdown();
  EXPECT_EQ(predict_done.load(), kPredicts);
  EXPECT_EQ(fit_done.load(), fits_admitted);
}

TEST(ServeServer, ConcurrentSubmittersAndCacheConsistency) {
  // Many threads hammer a small key set through the full submit path;
  // every response for a key must be byte-identical to every other.
  Server server(small_options());
  server.start();
  constexpr int kThreads = 6;
  constexpr int kPerThread = 200;
  std::vector<std::string> requests;
  for (int k = 0; k < 5; ++k) {
    Json req = Json::object();
    req.set("type", "predict");
    req.set("platform", "Xeon Phi");
    req.set("intensity", 1 << k);
    requests.push_back(req.dump());
  }
  std::mutex seen_mutex;
  std::vector<std::string> canonical(requests.size());
  std::atomic<int> mismatches{0};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::size_t k =
            static_cast<std::size_t>(t + i) % requests.size();
        while (!server.submit(requests[k], [&, k](std::string&& body) {
          {
            std::lock_guard<std::mutex> lock(seen_mutex);
            if (canonical[k].empty())
              canonical[k] = body;
            else if (canonical[k] != body)
              mismatches.fetch_add(1);
          }
          done.fetch_add(1);
        })) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.shutdown();
  EXPECT_EQ(done.load(), kThreads * kPerThread);
  EXPECT_EQ(mismatches.load(), 0);
  // With 5 keys and 1200 requests, nearly everything is a cache hit.
  EXPECT_GT(server.cache_stats().hit_rate(), 0.9);
}

}  // namespace
