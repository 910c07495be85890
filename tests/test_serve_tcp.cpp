// TCP transport integration tests over real sockets: the epoll event
// loop's framing contract (half-close answers the final un-terminated
// line), pipelined bursts whose total size exceeds the per-line limit,
// the hard connection cap, idle timeouts (on a SimClock — exact, no
// wall-clock waits), Heavy-queue deadlines, and graceful stop flushing.
// Linux-only, like the transport itself.

#include <gtest/gtest.h>

#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"
#include "sim/clock.hpp"
#include "sim/request_pools.hpp"

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
  o.queue_capacity = 64;
  o.cache_capacity = 128;
  o.cache_shards = 4;
  return o;
}

TEST(ServeTcp, AnswersPipelinedRequestsInOrder) {
  TcpTransport transport(small_options(), TcpOptions{});
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  std::string block;
  for (int i = 0; i < 20; ++i) {
    Json req = Json::object();
    req.set("type", "predict");
    req.set("platform", "GTX Titan");
    req.set("id", i);
    req.set("intensity", 1.0 + i);
    block += req.dump();
    block += '\n';
  }
  ASSERT_TRUE(send_all(fd, block));
  const auto lines = read_lines(fd, 20);
  ASSERT_EQ(lines.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    const Json body = Json::parse(lines[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(body.bool_or("ok", false));
    EXPECT_EQ(body.number_or("id", -1), i);  // FIFO order held
  }
  ::close(fd);
}

TEST(ServeTcp, HalfCloseStillAnswersFinalUnterminatedLine) {
  TcpTransport transport(small_options(), TcpOptions{});
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  // One complete line, then a final request with no trailing newline,
  // then half-close the write side. Both must be answered.
  std::string block = std::string(kPredict) + "\n" +
                      R"({"type":"platforms"})";
  ASSERT_TRUE(send_all(fd, block));
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
  const auto lines = read_lines(fd, 2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("type", ""), "predict");
  EXPECT_EQ(Json::parse(lines[1]).string_or("type", ""), "platforms");
  EXPECT_TRUE(wait_for_eof(fd));  // server closes after the flush
  ::close(fd);
}

TEST(ServeTcp, PipelinedBurstBiggerThanLineLimitIsNotRejected) {
  // Regression: the old transport bounded TOTAL buffered bytes before
  // extracting lines, so a burst of small requests tripped "too_large".
  ServerOptions options = small_options();
  options.limits.max_request_bytes = 512;
  TcpTransport transport(options, TcpOptions{});
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  std::string block;
  constexpr int kRequests = 64;  // ~70 bytes each: way past 2 * 512 total
  for (int i = 0; i < kRequests; ++i)
    block += std::string(kPredict) + "\n";
  ASSERT_GT(block.size(), 2 * options.limits.max_request_bytes);
  ASSERT_TRUE(send_all(fd, block));
  const auto lines = read_lines(fd, kRequests);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kRequests));
  for (const std::string& line : lines)
    EXPECT_TRUE(Json::parse(line).bool_or("ok", false));
  ::close(fd);
}

TEST(ServeTcp, UnterminatedOversizedLineGetsTooLargeThenClose) {
  ServerOptions options = small_options();
  options.limits.max_request_bytes = 512;
  TcpTransport transport(options, TcpOptions{});
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  // A single "line" that never ends and exceeds the limit.
  const std::string endless(2048, 'x');
  ASSERT_TRUE(send_all(fd, endless));
  const auto lines = read_lines(fd, 1);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(Json::parse(lines[0]).string_or("error", ""), "too_large");
  EXPECT_TRUE(wait_for_eof(fd));
  ::close(fd);
}

TEST(ServeTcp, ConnectionCapAnswersOverloadedAndCloses) {
  TcpOptions tcp;
  tcp.max_connections = 2;
  TcpTransport transport(small_options(), tcp);
  const int fd1 = connect_tcp(kLoopback, transport.port());
  const int fd2 = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd1, 0);
  ASSERT_GE(fd2, 0);
  // Round-trips prove both are accepted (not just queued in the
  // backlog) before the third connect.
  ASSERT_TRUE(send_all(fd1, std::string(kPredict) + "\n"));
  ASSERT_TRUE(send_all(fd2, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd1, 1).size(), 1u);
  ASSERT_EQ(read_lines(fd2, 1).size(), 1u);

  const int fd3 = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd3, 0);
  const auto rejected = read_lines(fd3, 1);
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(Json::parse(rejected[0]).string_or("error", ""), "overloaded");
  EXPECT_TRUE(wait_for_eof(fd3));
  ::close(fd3);

  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_accepted, 2u);
  EXPECT_EQ(snap.connections_rejected, 1u);
  EXPECT_EQ(snap.connections_open, 2u);
  ::close(fd1);
  ::close(fd2);
}

TEST(ServeTcp, CapFreesUpWhenAConnectionCloses) {
  TcpOptions tcp;
  tcp.max_connections = 1;
  TcpTransport transport(small_options(), tcp);
  const int fd1 = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd1, 0);
  ASSERT_TRUE(send_all(fd1, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd1, 1).size(), 1u);
  ::close(fd1);
  // The slot is released once the loop notices the close; a new client
  // must eventually be admitted and served. Each attempt is a full
  // blocking round-trip, so retries are already paced by the loop —
  // no sleeping needed, just a wall-clock bound on the whole test.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool served = false;
  while (!served && std::chrono::steady_clock::now() < deadline) {
    const int fd = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fd, 0);
    if (send_all(fd, std::string(kPredict) + "\n")) {
      const auto lines = read_lines(fd, 1);
      if (lines.size() == 1 &&
          Json::parse(lines[0]).bool_or("ok", false))
        served = true;
    }
    ::close(fd);
    if (!served) std::this_thread::yield();
  }
  EXPECT_TRUE(served);
}

TEST(ServeTcp, IdleConnectionIsClosedAndCounted) {
  // The idle timer runs on a SimClock: 60 s of simulated idleness is
  // one advance call, so the test proves "closed because idle", not
  // "closed because the test slept long enough". The poll interval is
  // real time — it only bounds how fast the loop notices.
  archline::sim::SimClock clock;
  TcpOptions tcp;
  tcp.idle_timeout_ms = 60'000;
  tcp.poll_interval_ms = 5;
  tcp.clock = &clock;
  TcpTransport transport(small_options(), tcp);
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  // Activity first, so the close below is provably the idle timer —
  // and proof the connection survives while sim time stands still.
  ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  clock.advance_ms(60'001);  // one tick past the limit
  EXPECT_TRUE(wait_for_eof(fd));  // blocks until the sweep fires
  ::close(fd);
  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_idle_closed, 1u);
  EXPECT_EQ(snap.connections_open, 0u);
}

/// Wraps the real socket API; every successful sendv() advances the
/// SimClock by `advance_ms` AFTER the bytes are out — the schedule a
/// peer produces when it reads a reply and moves sim time on before the
/// loop thread runs again.
class ClockAdvancingSendOps : public SocketOps {
 public:
  ClockAdvancingSendOps(archline::sim::SimClock& clock, int advance_ms)
      : clock_(clock), advance_ms_(advance_ms) {}

  ssize_t sendv(int fd, const struct iovec* iov, int iovcnt) noexcept override {
    const ssize_t n = real_socket_ops().sendv(fd, iov, iovcnt);
    if (n > 0) clock_.advance_ms(advance_ms_);
    return n;
  }

 private:
  archline::sim::SimClock& clock_;
  const int advance_ms_;
};

TEST(ServeTcp, IdleTimerCountsFromBeforeTheSendNotAfterIt) {
  // Regression: the loop stamped last_activity AFTER sendv returned, so
  // sim time advanced by the peer in between made the connection look
  // freshly active forever and the idle sweep never fired (this hung
  // IdleConnectionIsClosedAndCounted under parallel ctest). Here the
  // advance happens inside sendv, so the old order fails every time.
  archline::sim::SimClock clock;
  ClockAdvancingSendOps ops(clock, 60'001);
  TcpOptions tcp;
  tcp.idle_timeout_ms = 60'000;
  tcp.poll_interval_ms = 5;
  tcp.clock = &clock;
  tcp.socket_ops = &ops;
  TcpTransport transport(small_options(), tcp);
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  ASSERT_EQ(read_lines(fd, 1).size(), 1u);
  // 60 001 ms passed since the last read and the last send began.
  EXPECT_TRUE(wait_for_eof(fd));
  ::close(fd);
  EXPECT_EQ(transport.server().metrics().snapshot().connections_idle_closed,
            1u);
}

TEST(ServeTcp, QueueWaitPastDeadlineAnswersDeadlineExceeded) {
  // One worker, 1 ms queue deadline on a SimClock. A large fit occupies
  // the only worker; small fits queued behind it, interleaved with
  // predicts, wait while sim time moves 2 ms on. The fits must be
  // answered with the canned deadline error; the predicts never queue
  // (they run on the shard loop) and are answered normally — all of it
  // in request order.
  archline::sim::SimClock clock;
  ServerOptions options = small_options();
  options.threads = 1;
  options.request_deadline_ms = 1;
  options.clock = &clock;
  TcpTransport transport(options, TcpOptions{});

  Json obs = Json::array();
  for (int p = 0; p < 2000; ++p) {
    Json row = Json::object();
    row.set("flops", 1e9);
    row.set("bytes", 1e9 / (1.0 + p % 37));
    row.set("seconds", 1e-3 * (1 + p % 11));
    row.set("joules", 1e-1 * (1 + p % 7));
    obs.push_back(std::move(row));
  }
  Json fit = Json::object();
  fit.set("type", "fit");
  fit.set("observations", std::move(obs));

  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_all(fd, fit.dump() + "\n"));
  // The worker publishes the queue depth after each pop: peak 1 with
  // depth 0 means the big fit was admitted and is now executing.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(30);
  const auto wait_for = [&](auto predicate) {
    while (!predicate(transport.server().metrics().snapshot()))
      if (std::chrono::steady_clock::now() > give_up) return false;
    return true;
  };
  ASSERT_TRUE(wait_for([](const Metrics::Snapshot& s) {
    return s.queue_peak == 1 && s.queue_depth == 0;
  }));
  constexpr int kLateFits = 5;
  std::string block;
  for (const std::string& late : archline::sim::make_fit_pool(kLateFits, 1))
    block += late + "\n" + kPredict + "\n";
  ASSERT_TRUE(send_all(fd, block));
  ASSERT_TRUE(wait_for([&](const Metrics::Snapshot& s) {
    return s.queue_depth == static_cast<std::size_t>(kLateFits);
  }));
  clock.advance_ms(2);  // every queued fit is now past its deadline
  const auto lines = read_lines(fd, 1 + 2 * kLateFits);
  ASSERT_EQ(lines.size(), 1u + 2 * kLateFits);
  EXPECT_TRUE(Json::parse(lines[0]).bool_or("ok", false)) << lines[0];
  for (int i = 0; i < kLateFits; ++i) {
    const auto at = static_cast<std::size_t>(1 + 2 * i);
    EXPECT_EQ(Json::parse(lines[at]).string_or("error", ""),
              "deadline_exceeded");
    EXPECT_EQ(Json::parse(lines[at + 1]).string_or("type", ""), "predict");
  }
  ::close(fd);
  EXPECT_EQ(transport.server().metrics().snapshot().deadline_exceeded,
            static_cast<std::uint64_t>(kLateFits));
}

TEST(ServeTcp, GracefulStopFlushesAdmittedWork) {
  // Submit a batch, then immediately tear the transport down; every
  // admitted request must still be answered before the socket closes.
  auto transport =
      std::make_unique<TcpTransport>(small_options(), TcpOptions{});
  const int fd = connect_tcp(kLoopback, transport->port());
  ASSERT_GE(fd, 0);
  constexpr int kRequests = 16;
  std::string block;
  for (int i = 0; i < kRequests; ++i)
    block += std::string(kPredict) + "\n";
  ASSERT_TRUE(send_all(fd, block));
  // The first response proves the loop consumed the whole block (one
  // localhost segment, read in one 64 KiB recv), i.e. all kRequests are
  // admitted. Then destruction stops the loop; the admitted work must
  // still be answered and flushed before the connection closes.
  std::string carry;
  ASSERT_EQ(read_lines(fd, 1, &carry).size(), 1u);
  std::thread teardown([&] { transport.reset(); });
  const auto rest = read_lines(fd, kRequests - 1, &carry);
  teardown.join();
  EXPECT_EQ(rest.size(), static_cast<std::size_t>(kRequests - 1));
  ::close(fd);
}

TEST(ServeTcp, ManyConcurrentConnections) {
  // 32 sockets, interleaved writes, all answered; the transport runs on
  // one loop thread regardless.
  ServerOptions options = small_options();
  options.queue_capacity = 1024;  // headroom: no legitimate overloads
  TcpTransport transport(options, TcpOptions{});
  constexpr int kConns = 32;
  constexpr int kPerConn = 8;
  std::vector<int> fds;
  for (int i = 0; i < kConns; ++i) {
    const int fd = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fd, 0);
    fds.push_back(fd);
  }
  for (int r = 0; r < kPerConn; ++r)
    for (const int fd : fds)
      ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
  for (const int fd : fds) {
    const auto lines = read_lines(fd, kPerConn);
    EXPECT_EQ(lines.size(), static_cast<std::size_t>(kPerConn));
    for (const std::string& line : lines)
      EXPECT_TRUE(Json::parse(line).bool_or("ok", false));
    ::close(fd);
  }
  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_accepted, static_cast<std::uint64_t>(kConns));
}

}  // namespace
