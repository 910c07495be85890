// The sharded TCP front end: shard-count clamping, SO_REUSEPORT vs.
// deterministic handoff placement, per-shard metrics and stats
// rendering, cross-shard cache correctness (identical bodies from
// every partition, refit invalidating all of them), and the two
// lifecycle bugfix regressions — the open() fd leak and the drain
// grace being held hostage by a long poll interval.

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"
#include "sim/clock.hpp"

namespace {

using namespace archline::serve;
using serve_tcp_testlib::TcpTransport;
using serve_tcp_testlib::connect_tcp;
using serve_tcp_testlib::kLoopback;
using serve_tcp_testlib::read_lines;
using serve_tcp_testlib::send_all;
using serve_tcp_testlib::wait_for_eof;

const char* kPredict =
    R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":4})";

ServerOptions small_options() {
  ServerOptions o;
  o.threads = 2;
  o.queue_capacity = 256;
  o.cache_capacity = 256;
  o.cache_shards = 4;
  return o;
}

/// Open fds in this process (raw /proc/self/fd entry count; the
/// directory-iteration overhead is identical across calls, so deltas
/// are exact).
int open_fd_count() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (!dir) return -1;
  int n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

/// Eight synthetic roofline observations for "GTX Titan" — enough for
/// min_resolve_observations, generated from a hard roofline (peak
/// `peak_flops`, 10 GB/s, 60 W) so the refit solver converges and
/// publishes a generation that differs wildly from the platform
/// defaults. Vary the peak across calls to make successive refits
/// publish distinguishable generations.
std::string observe_line(double peak_flops = 2e9) {
  std::ostringstream out;
  out << R"({"type":"observe","platform":"GTX Titan","observations":[)";
  for (int i = 0; i < 8; ++i) {
    const double intensity = 0.25 * static_cast<double>(1 << i);
    const double flops = 1e8;
    const double bytes = flops / intensity;
    const double seconds = std::max(flops / peak_flops, bytes / 1e10);
    const double joules = 60.0 * seconds;
    if (i) out << ',';
    out << R"({"flops":)" << flops << R"(,"bytes":)" << bytes
        << R"(,"seconds":)" << seconds << R"(,"joules":)" << joules << '}';
  }
  out << "]}";
  return out.str();
}

// ---- Shard count resolution ----------------------------------------------

TEST(ServeTcpShard, ShardCountClampsToBoundsAndMaxConnections) {
  Server server(small_options());
  {
    TcpOptions tcp;
    tcp.port = 0;
    tcp.shards = 0;  // below the floor
    TcpListener listener(server, tcp);
    std::string error;
    ASSERT_TRUE(listener.open(&error)) << error;
    EXPECT_EQ(listener.shard_count(), 1);
  }
  {
    TcpOptions tcp;
    tcp.port = 0;
    tcp.shards = 1000;  // above kMaxShards
    TcpListener listener(server, tcp);
    std::string error;
    ASSERT_TRUE(listener.open(&error)) << error;
    EXPECT_EQ(listener.shard_count(), TcpListener::kMaxShards);
  }
  {
    TcpOptions tcp;
    tcp.port = 0;
    tcp.shards = 8;
    tcp.max_connections = 2;  // a shard with zero slots is useless
    TcpListener listener(server, tcp);
    std::string error;
    ASSERT_TRUE(listener.open(&error)) << error;
    EXPECT_EQ(listener.shard_count(), 2);
  }
}

// ---- Bugfix regression: open() leaked fds on failure paths ---------------

TEST(ServeTcpShard, FailedOpenDoesNotLeakFds) {
  Server server(small_options());
  TcpOptions tcp;
  tcp.bind_address = "not an address";
  TcpListener listener(server, tcp);
  std::string error;
  ASSERT_FALSE(listener.open(&error));
  EXPECT_NE(error.find("invalid bind address"), std::string::npos) << error;
  // Pre-fix: every failed open left its ::socket() fd behind (the
  // inet_pton error path returned without closing), so 64 retries leak
  // 64 fds. Post-fix the count is flat.
  const int before = open_fd_count();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(listener.open(&error));
  EXPECT_EQ(open_fd_count(), before);
}

TEST(ServeTcpShard, OpenRetriesAfterBindFailureWithoutLeaking) {
  Server server(small_options());
  // Occupy an ephemeral port...
  TcpOptions holder_opts;
  holder_opts.port = 0;
  auto holder = std::make_unique<TcpListener>(server, holder_opts);
  std::string error;
  ASSERT_TRUE(holder->open(&error)) << error;
  const std::uint16_t port = holder->port();

  // ...so a second listener's bind fails (EADDRINUSE), repeatedly and
  // without leaking. Pre-fix, the repeated-open path also leaked the
  // PREVIOUS listen fd: `listen_fd_ = ::socket(...)` overwrote it
  // unclosed.
  TcpOptions clash;
  clash.port = port;
  TcpListener retry(server, clash);
  ASSERT_FALSE(retry.open(&error));
  const int before = open_fd_count();
  for (int i = 0; i < 64; ++i) EXPECT_FALSE(retry.open(&error));
  EXPECT_EQ(open_fd_count(), before);

  // Releasing the port makes the SAME listener object openable — the
  // retry contract the leak was breaking.
  holder.reset();
  ASSERT_TRUE(retry.open(&error)) << error;
  EXPECT_EQ(retry.port(), port);
}

// ---- Placement: REUSEPORT spread and deterministic handoff ---------------

TEST(ServeTcpShard, ReuseportShardsServeConnectionsAndAggregateStats) {
  TcpOptions tcp;
  tcp.shards = 4;
  TcpTransport transport(small_options(), tcp);

  std::vector<int> fds;
  for (int i = 0; i < 32; ++i) {
    const int fd = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
    const auto lines = read_lines(fd, 1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(Json::parse(lines[0]).bool_or("ok", false)) << lines[0];
    fds.push_back(fd);
  }

  // Kernel hashing decides the spread, so only the sums are asserted:
  // every accept and request landed on exactly one shard's counters.
  const Metrics::Snapshot snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.transport_shards, 4u);
  std::uint64_t accepted = 0;
  std::uint64_t requests = 0;
  for (std::size_t i = 0; i < snap.transport_shards; ++i) {
    accepted += snap.shards[i].accepted;
    requests += snap.shards[i].requests;
  }
  EXPECT_EQ(accepted, 32u);
  EXPECT_EQ(requests, 32u);
  EXPECT_EQ(snap.connections_accepted, 32u);

  // The stats endpoint renders the per-shard breakdown.
  ASSERT_TRUE(send_all(fds[0], "{\"type\":\"stats\"}\n"));
  const auto stats = read_lines(fds[0], 1);
  ASSERT_EQ(stats.size(), 1u);
  const Json body = Json::parse(stats[0]);
  const Json* conns = body.find("connections");
  ASSERT_NE(conns, nullptr);
  const Json* shards = conns->find("shards");
  ASSERT_NE(shards, nullptr) << stats[0];
  EXPECT_EQ(shards->as_array().size(), 4u);

  for (const int fd : fds) ::close(fd);
}

TEST(ServeTcpShard, HandoffModePlacesConnectionsRoundRobin) {
  TcpOptions tcp;
  tcp.shards = 2;
  tcp.use_reuseport = false;  // deterministic accept-order placement
  TcpTransport transport(small_options(), tcp);

  // Serial connects, each confirmed served before the next, so accept
  // order is the connect order: conn 0 -> shard 0, conn 1 -> shard 1.
  int fds[2];
  for (int i = 0; i < 2; ++i) {
    fds[i] = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fds[i], 0);
    ASSERT_TRUE(send_all(fds[i], std::string(kPredict) + "\n"));
    ASSERT_EQ(read_lines(fds[i], 1).size(), 1u);
  }
  const Metrics::Snapshot snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.transport_shards, 2u);
  EXPECT_EQ(snap.shards[0].accepted, 1u);
  EXPECT_EQ(snap.shards[1].accepted, 1u);
  EXPECT_EQ(snap.shards[0].requests, 1u);
  EXPECT_EQ(snap.shards[1].requests, 1u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- Cross-shard cache correctness ---------------------------------------

TEST(ServeTcpShard, PartitionsAgreeAcrossShardsAndRefitInvalidatesAll) {
  TcpOptions tcp;
  tcp.shards = 2;
  tcp.use_reuseport = false;  // pin conn 0 -> shard 0, conn 1 -> shard 1
  TcpTransport transport(small_options(), tcp);

  int fds[2];
  std::string before[2];
  for (int i = 0; i < 2; ++i) {
    fds[i] = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fds[i], 0);
    ASSERT_TRUE(send_all(fds[i], std::string(kPredict) + "\n"));
    const auto lines = read_lines(fds[i], 1);
    ASSERT_EQ(lines.size(), 1u);
    before[i] = lines[0];
  }
  // Same cacheable request through two different shard partitions:
  // byte-identical bodies.
  EXPECT_EQ(before[0], before[1]);

  // Second round is served from each shard's partition, inline.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(send_all(fds[i], std::string(kPredict) + "\n"));
    const auto lines = read_lines(fds[i], 1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], before[i]);
  }
  const ShardedLruCache::Stats warm = transport.server().cache_stats();
  EXPECT_GE(warm.hits, 2u) << "partition hits did not register";
  const Metrics::Snapshot snap = transport.server().metrics().snapshot();
  EXPECT_GE(snap.shards[0].cached_inline, 1u);
  EXPECT_GE(snap.shards[1].cached_inline, 1u);

  // Publish a refit through shard 0. Generation-scoped entries in BOTH
  // partitions must go stale — shard 1 never saw the refit.
  ASSERT_TRUE(send_all(fds[0], observe_line() + "\n"));
  auto lines = read_lines(fds[0], 1);
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_TRUE(Json::parse(lines[0]).bool_or("ok", false)) << lines[0];
  ASSERT_TRUE(
      send_all(fds[0], R"({"type":"refit","platform":"GTX Titan"})" "\n"));
  lines = read_lines(fds[0], 1);
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_TRUE(Json::parse(lines[0]).bool_or("ok", false)) << lines[0];

  std::string after[2];
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(send_all(fds[i], std::string(kPredict) + "\n"));
    const auto replies = read_lines(fds[i], 1);
    ASSERT_EQ(replies.size(), 1u);
    after[i] = replies[0];
  }
  EXPECT_EQ(after[0], after[1]);
  EXPECT_NE(after[0], before[0])
      << "a shard partition served a pre-refit generation";
  const ShardedLruCache::Stats stats = transport.server().cache_stats();
  EXPECT_GE(stats.stale, 2u)
      << "refit did not invalidate the entry in every partition";

  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeTcpShard, ChurnedRefitsNeverServeAStaleGeneration) {
  TcpOptions tcp;
  tcp.shards = 4;
  tcp.use_reuseport = false;  // pin conn i -> shard i
  TcpTransport transport(small_options(), tcp);

  constexpr int kShards = 4;
  const char* kBatch =
      R"({"type":"predict_batch","platform":"GTX Titan","elements":)"
      R"([{"flops":1e9,"intensity":4},{"flops":2e9,"intensity":0.5}]})";
  const char* kPolicy =
      R"({"type":"policy_advise","platform":"GTX Titan",)"
      R"("objective":"min_edp","flops":1e12,"intensity":8})";

  // Serial connects, each confirmed served before the next, so accept
  // order pins conn i to shard i. The warm predict also seeds every
  // partition with the pre-refit generation.
  int fds[kShards];
  std::string prev_predict;
  for (int i = 0; i < kShards; ++i) {
    fds[i] = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fds[i], 0);
    ASSERT_TRUE(send_all(fds[i], std::string(kPredict) + "\n"));
    const auto lines = read_lines(fds[i], 1);
    ASSERT_EQ(lines.size(), 1u);
    prev_predict = lines[0];
  }

  const ShardedLruCache::Stats start = transport.server().cache_stats();
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    // Publish a new generation through a rotating shard. Every other
    // shard only learns about it through generation-scoped
    // invalidation — none of them saw the refit request.
    const int publisher = round % kShards;
    const double peak = 2e9 * std::pow(4.0, round + 1);
    ASSERT_TRUE(send_all(fds[publisher], observe_line(peak) + "\n"));
    auto lines = read_lines(fds[publisher], 1);
    ASSERT_EQ(lines.size(), 1u);
    ASSERT_TRUE(Json::parse(lines[0]).bool_or("ok", false)) << lines[0];
    ASSERT_TRUE(send_all(fds[publisher],
                         R"({"type":"refit","platform":"GTX Titan"})" "\n"));
    lines = read_lines(fds[publisher], 1);
    ASSERT_EQ(lines.size(), 1u);
    ASSERT_TRUE(Json::parse(lines[0]).bool_or("ok", false)) << lines[0];

    // Two passes over every shard and every cacheable endpoint: the
    // first pass may compute-and-insert, the second must come from the
    // partition's cached copy. All partitions must agree byte-for-byte
    // and the consensus must move whenever a refit lands.
    for (const char* request : {kPredict, kBatch, kPolicy}) {
      std::string bodies[2][kShards];
      for (int pass = 0; pass < 2; ++pass) {
        for (int i = 0; i < kShards; ++i) {
          ASSERT_TRUE(send_all(fds[i], std::string(request) + "\n"));
          const auto replies = read_lines(fds[i], 1);
          ASSERT_EQ(replies.size(), 1u);
          bodies[pass][i] = replies[0];
        }
      }
      for (int i = 0; i < kShards; ++i) {
        EXPECT_EQ(bodies[0][i], bodies[0][0])
            << "partitions disagree in round " << round << ": " << request;
        EXPECT_EQ(bodies[1][i], bodies[0][i])
            << "cached copy diverged in round " << round << ": " << request;
      }
      if (request == kPredict) {
        EXPECT_NE(bodies[0][0], prev_predict)
            << "round " << round << " served a pre-refit generation";
        prev_predict = bodies[0][0];
      }
    }
  }

  // Each refit must have killed at least the cached predict entry
  // (stale is counted on next access), and the second passes must have
  // actually been partition hits.
  const ShardedLruCache::Stats end = transport.server().cache_stats();
  EXPECT_GE(end.stale - start.stale, static_cast<std::size_t>(kRounds));
  EXPECT_GT(end.hits, start.hits);

  for (const int fd : fds) ::close(fd);
}

// ---- Bugfix regression: drain grace vs. poll interval --------------------

/// SocketOps whose write side is permanently full — the stalled peer
/// from the loop's point of view. Reads and accepts are real.
class StuckSendOps final : public SocketOps {
 public:
  ssize_t send(int, const char*, std::size_t) noexcept override {
    errno = EAGAIN;
    return -1;
  }
  ssize_t sendv(int, const struct iovec*, int) noexcept override {
    errno = EAGAIN;
    return -1;
  }
};

/// Server + listener + loop thread with by-hand stop control, for the
/// shutdown-timing tests (the TcpTransport fixture hides the join).
struct ManualTransport {
  explicit ManualTransport(TcpOptions tcp) : server(small_options()) {
    server.start();
    tcp.port = 0;
    listener = std::make_unique<TcpListener>(server, tcp);
    std::string error;
    opened = listener->open(&error);
    EXPECT_TRUE(opened) << error;
    if (opened)
      loop = std::thread([this] {
        listener->run(stop);
        done.store(true, std::memory_order_release);
      });
  }

  ~ManualTransport() {
    stop.store(true, std::memory_order_release);
    if (loop.joinable()) loop.join();
    server.shutdown();
  }

  Server server;
  std::unique_ptr<TcpListener> listener;
  std::atomic<bool> stop{false};
  std::atomic<bool> done{false};
  std::thread loop;
  bool opened = false;
};

TEST(ServeTcpShard, DrainGraceHonoredDespiteLongPollInterval) {
  StuckSendOps ops;
  TcpOptions tcp;
  tcp.poll_interval_ms = 5000;  // much longer than the grace
  tcp.drain_grace_ms = 300;
  tcp.socket_ops = &ops;
  ManualTransport t(tcp);
  ASSERT_TRUE(t.opened);

  // One request whose reply can never flush: the connection is exactly
  // the "peer stopped reading" shutdown hostage.
  const int fd = connect_tcp(kLoopback, t.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto t0 = std::chrono::steady_clock::now();
  t.stop.store(true, std::memory_order_release);
  // Wake the loop out of its 5 s epoll_wait so it notices the stop;
  // from that point the grace clock runs.
  const int waker = connect_tcp(kLoopback, t.listener->port());
  while (!t.done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(4))
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);

  // Pre-fix: the grace check only ran when epoll_wait returned, so the
  // stalled peer held shutdown for the full 5 s poll interval. Post-fix
  // the epoll timeout is clamped to the remaining grace: ~300 ms.
  EXPECT_TRUE(t.done.load(std::memory_order_acquire))
      << "loop still draining after 4 s";
  EXPECT_LT(elapsed.count(), 2000) << "shutdown outlived the drain grace";
  EXPECT_GE(elapsed.count(), 250) << "force-close fired before the grace";
  if (waker >= 0) ::close(waker);
  ::close(fd);
}

TEST(ServeTcpShard, DrainGraceDeadlineIsExactUnderSimClock) {
  archline::sim::SimClock clock;
  StuckSendOps ops;
  TcpOptions tcp;
  tcp.poll_interval_ms = 5;  // fast real-time wakes; time is simulated
  tcp.drain_grace_ms = 1000;
  tcp.clock = &clock;
  tcp.socket_ops = &ops;
  ManualTransport t(tcp);
  ASSERT_TRUE(t.opened);

  const int fd = connect_tcp(kLoopback, t.listener->port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));

  t.stop.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  // Sim time is frozen at the stop instant: zero grace has elapsed, so
  // the stalled connection must still be draining.
  EXPECT_FALSE(t.done.load(std::memory_order_acquire));

  // Exactly AT the grace boundary the contract is "keep draining" (the
  // check is strictly greater-than)...
  clock.advance_ms(1000);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(t.done.load(std::memory_order_acquire))
      << "force-close fired AT the boundary; the deadline is exclusive";

  // ...and one millisecond past it, the force-close must fire.
  clock.advance_ms(1);
  const auto t0 = std::chrono::steady_clock::now();
  while (!t.done.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2))
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(t.done.load(std::memory_order_acquire));
  EXPECT_TRUE(wait_for_eof(fd));
  ::close(fd);
}

}  // namespace
