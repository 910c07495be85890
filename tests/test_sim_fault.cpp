// FaultyTransport: deterministic unit behavior against a mock inner
// SocketOps, then end-to-end fault campaigns over the real epoll loop —
// split reads, byte-at-a-time transfer, short writes, EAGAIN storms,
// mid-frame resets, and accept failures. The protocol contract (every
// admitted request answered, FIFO order, byte-identical replies) must
// hold under every recoverable fault mix.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"
#include "sim/fault.hpp"

namespace {

using namespace archline::serve;
using archline::sim::FaultCounters;
using archline::sim::FaultScript;
using archline::sim::FaultyTransport;
using archline::sim::ShardedFaultyTransport;
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

// ---- Unit: deterministic decisions over a mock inner ----------------------

/// Inner SocketOps that always succeeds and records the lengths it was
/// asked to move — what the fault layer's cuts look like from below.
class RecordingOps final : public SocketOps {
 public:
  int accept(int) noexcept override { return 99; }
  ssize_t recv(int, char* buf, std::size_t len) noexcept override {
    recv_lens.push_back(len);
    std::memset(buf, 'x', len);
    return static_cast<ssize_t>(len);
  }
  ssize_t send(int, const char*, std::size_t len) noexcept override {
    send_lens.push_back(len);
    return static_cast<ssize_t>(len);
  }
  std::vector<std::size_t> recv_lens;
  std::vector<std::size_t> send_lens;
};

TEST(SimFault, DefaultScriptIsTransparent) {
  RecordingOps inner;
  FaultyTransport faulty(FaultScript{}, inner);
  char buf[256];
  EXPECT_EQ(faulty.accept(5), 99);
  EXPECT_EQ(faulty.recv(5, buf, sizeof buf),
            static_cast<ssize_t>(sizeof buf));
  EXPECT_EQ(faulty.send(5, buf, 100), 100);
  EXPECT_EQ(inner.recv_lens, (std::vector<std::size_t>{256}));
  EXPECT_EQ(inner.send_lens, (std::vector<std::size_t>{100}));
  EXPECT_EQ(faulty.counters().injected(), 0u);
}

TEST(SimFault, SameSeedSameDecisions) {
  // Two transports with identical scripts must cut/fail identically
  // call for call — the property every "repro from seed" claim rests on.
  FaultScript script;
  script.seed = 42;
  script.split_read = 0.5;
  script.short_write = 0.5;
  script.eagain = 0.2;
  script.reset = 0.05;
  script.accept_fail = 0.3;
  for (int round = 0; round < 2; ++round) {
    RecordingOps inner_a, inner_b;
    FaultyTransport a(script, inner_a);
    FaultyTransport b(script, inner_b);
    char buf[512];
    std::vector<long> results_a, results_b;
    for (int i = 0; i < 200; ++i) {
      results_a.push_back(a.recv(3, buf, sizeof buf));
      results_a.push_back(a.send(3, buf, 300));
      results_a.push_back(a.accept(3));
      results_b.push_back(b.recv(3, buf, sizeof buf));
      results_b.push_back(b.send(3, buf, 300));
      results_b.push_back(b.accept(3));
    }
    EXPECT_EQ(results_a, results_b);
    EXPECT_EQ(inner_a.recv_lens, inner_b.recv_lens);
    EXPECT_EQ(inner_a.send_lens, inner_b.send_lens);
    EXPECT_EQ(a.counters().injected(), b.counters().injected());
    EXPECT_GT(a.counters().injected(), 0u);
  }
}

TEST(SimFault, SplitReadsNeverReturnZero) {
  // A zero-length recv means EOF to the loop; the fault layer must
  // never fabricate one, no matter how aggressive the script.
  RecordingOps inner;
  FaultScript script;
  script.seed = 7;
  script.split_read = 1.0;
  script.short_write = 1.0;
  FaultyTransport faulty(script, inner);
  char buf[64];
  for (int i = 0; i < 500; ++i) {
    EXPECT_GT(faulty.recv(3, buf, sizeof buf), 0);
    EXPECT_GT(faulty.send(3, buf, sizeof buf), 0);
    // Length-1 ops cannot be cut further, only passed through.
    EXPECT_EQ(faulty.recv(3, buf, 1), 1);
  }
  for (const std::size_t len : inner.recv_lens) EXPECT_GE(len, 1u);
  for (const std::size_t len : inner.send_lens) EXPECT_GE(len, 1u);
}

TEST(SimFault, MaxChunkCapsEveryTransfer) {
  RecordingOps inner;
  FaultScript script;
  script.max_chunk = 3;
  FaultyTransport faulty(script, inner);
  char buf[1024];
  EXPECT_EQ(faulty.recv(3, buf, sizeof buf), 3);
  EXPECT_EQ(faulty.send(3, buf, 500), 3);
  EXPECT_EQ(faulty.recv(3, buf, 2), 2);  // below the cap: untouched
}

TEST(SimFault, InjectedErrorsSetErrno) {
  RecordingOps inner;
  FaultScript script;
  script.seed = 3;
  script.eagain = 1.0;
  FaultyTransport eagain(script, inner);
  char buf[8];
  errno = 0;
  EXPECT_EQ(eagain.recv(3, buf, sizeof buf), -1);
  EXPECT_EQ(errno, EAGAIN);

  script.eagain = 0.0;
  script.reset = 1.0;
  FaultyTransport reset(script, inner);
  errno = 0;
  EXPECT_EQ(reset.send(3, buf, sizeof buf), -1);
  EXPECT_EQ(errno, ECONNRESET);

  script.reset = 0.0;
  script.accept_fail = 1.0;
  FaultyTransport nofd(script, inner);
  errno = 0;
  EXPECT_EQ(nofd.accept(3), -1);
  EXPECT_EQ(errno, EMFILE);
  EXPECT_TRUE(inner.recv_lens.empty());  // faults short-circuit the inner
  EXPECT_TRUE(inner.send_lens.empty());
}

// ---- Unit: scatter-gather sends -------------------------------------------

/// Inner SocketOps recording every sendv gather list it receives.
class GatherRecordingOps final : public SocketOps {
 public:
  int accept(int) noexcept override { return 99; }
  ssize_t recv(int, char* buf, std::size_t len) noexcept override {
    std::memset(buf, 'x', len);
    return static_cast<ssize_t>(len);
  }
  ssize_t send(int, const char*, std::size_t len) noexcept override {
    return static_cast<ssize_t>(len);
  }
  ssize_t sendv(int, const struct iovec* iov, int iovcnt) noexcept override {
    std::vector<std::size_t> lens;
    std::size_t total = 0;
    for (int i = 0; i < iovcnt; ++i) {
      lens.push_back(iov[i].iov_len);
      total += iov[i].iov_len;
    }
    calls.push_back(std::move(lens));
    return static_cast<ssize_t>(total);
  }
  std::vector<std::vector<std::size_t>> calls;
};

TEST(SimFault, BaseSendvDefaultRoutesThroughSend) {
  // SocketOps implementations that only override send() (every mock
  // written before writev batching) still work: the base sendv default
  // forwards the first non-empty segment through send(), which is a
  // legal short write the loop already handles.
  RecordingOps inner;
  char a[3], b[5];
  struct iovec iov[3] = {{a, 0}, {a, sizeof a}, {b, sizeof b}};
  EXPECT_EQ(inner.sendv(7, iov, 3), 3);
  EXPECT_EQ(inner.send_lens, (std::vector<std::size_t>{3}));
}

TEST(SimFault, SendvCutsApplyToTheWholeGatherList) {
  // A short-write cut applies to the TOTAL gathered length, and the
  // forwarded list is a byte-exact prefix: whole leading segments, then
  // at most one trimmed segment, never a zero-length one.
  GatherRecordingOps inner;
  FaultScript script;
  script.seed = 11;
  script.short_write = 1.0;
  FaultyTransport faulty(script, inner);
  char a[40], b[1], c[200];
  struct iovec iov[3] = {{a, sizeof a}, {b, sizeof b}, {c, sizeof c}};
  const std::size_t seg[3] = {sizeof a, sizeof b, sizeof c};
  const std::size_t total = sizeof a + sizeof b + sizeof c;
  for (int i = 0; i < 200; ++i) {
    const ssize_t n = faulty.sendv(7, iov, 3);
    ASSERT_GT(n, 0);
    ASSERT_LT(static_cast<std::size_t>(n), total);  // p=1: always cut
    const auto& fwd = inner.calls.back();
    std::size_t fwd_total = 0, at = 0;
    for (std::size_t j = 0; j < fwd.size(); ++j, ++at) {
      ASSERT_GT(fwd[j], 0u);
      // Prefix property: all but the last forwarded segment are whole.
      if (j + 1 < fwd.size()) ASSERT_EQ(fwd[j], seg[at]);
      else ASSERT_LE(fwd[j], seg[at]);
      fwd_total += fwd[j];
    }
    EXPECT_EQ(fwd_total, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(faulty.counters().short_writes.load(), 200u);
}

TEST(SimFault, SendvEmptyGatherListIsANoOp) {
  GatherRecordingOps inner;
  FaultScript script;
  script.seed = 12;
  script.short_write = 1.0;
  FaultyTransport faulty(script, inner);
  char a[1];
  struct iovec iov[2] = {{a, 0}, {a, 0}};
  EXPECT_EQ(faulty.sendv(7, iov, 2), 0);
  EXPECT_TRUE(inner.calls.empty());
}

TEST(SimFault, ShardedTransportGivesEachThreadItsOwnStream) {
  // Each calling thread gets an independent deterministic child; the
  // totals aggregate across all of them.
  GatherRecordingOps inner;
  FaultScript script;
  script.seed = 13;
  script.split_read = 0.5;
  ShardedFaultyTransport sharded(script, inner);
  char buf[256];
  for (int i = 0; i < 50; ++i) (void)sharded.recv(3, buf, sizeof buf);
  std::thread other([&] {
    char local[256];
    for (int i = 0; i < 50; ++i) (void)sharded.recv(3, local, sizeof local);
  });
  other.join();
  EXPECT_EQ(sharded.thread_count(), 2u);
  const auto totals = sharded.totals();
  EXPECT_EQ(totals.recv_calls, 100u);
  EXPECT_GT(totals.split_reads, 0u);
}

// ---- End to end: the epoll loop under fire --------------------------------

/// Runs `count` pipelined predicts through a faulty transport and
/// checks the full protocol contract survived.
void run_pipelined_campaign(FaultyTransport& faulty, int count,
                            ServerOptions options = small_options()) {
  TcpOptions tcp;
  tcp.socket_ops = &faulty;
  tcp.poll_interval_ms = 5;
  TcpTransport transport(options, tcp);
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  std::string block;
  for (int i = 0; i < count; ++i) {
    Json req = Json::object();
    req.set("type", "predict");
    req.set("platform", "GTX Titan");
    req.set("id", i);
    req.set("intensity", 1.0 + i);
    block += req.dump();
    block += '\n';
  }
  ASSERT_TRUE(send_all(fd, block));
  const auto lines = read_lines(fd, static_cast<std::size_t>(count));
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    const Json body = Json::parse(line);
    EXPECT_TRUE(body.bool_or("ok", false)) << line;
    EXPECT_EQ(body.number_or("id", -1), i);  // FIFO order held
  }
  ::close(fd);
}

TEST(SimFault, SplitReadsPreserveFraming) {
  // Reads chopped at arbitrary byte offsets — requests re-assemble
  // across recv calls, including splits inside JSON tokens.
  FaultScript script;
  script.seed = 101;
  script.split_read = 0.9;
  FaultyTransport faulty(script);
  run_pipelined_campaign(faulty, 20);
  EXPECT_GT(faulty.counters().split_reads.load(), 0u);
}

TEST(SimFault, ShortWritesPreserveResponses) {
  // Writes cut short — responses must re-assemble byte-exact on the
  // client through the loop's EPOLLOUT re-arm path.
  FaultScript script;
  script.seed = 202;
  script.short_write = 0.9;
  FaultyTransport faulty(script);
  run_pipelined_campaign(faulty, 20);
  EXPECT_GT(faulty.counters().short_writes.load(), 0u);
}

TEST(SimFault, EagainStormStillMakesProgress) {
  // 60% of reads and writes spuriously fail with EAGAIN; the
  // level-triggered loop must keep retrying until everything flows.
  FaultScript script;
  script.seed = 303;
  script.eagain = 0.6;
  FaultyTransport faulty(script);
  run_pipelined_campaign(faulty, 12);
  EXPECT_GT(faulty.counters().eagains.load(), 0u);
}

TEST(SimFault, ByteAtATimeTransferStillWorks) {
  // The ultimate framing torture: every recv and send moves one byte.
  FaultScript script;
  script.seed = 404;
  script.max_chunk = 1;
  FaultyTransport faulty(script);
  run_pipelined_campaign(faulty, 4);
  EXPECT_GT(faulty.counters().recv_calls.load(), 100u);
}

TEST(SimFault, EverythingAtOnce) {
  // All recoverable faults stacked — the regression net for the
  // connection-lifecycle bug class.
  FaultScript script;
  script.seed = 505;
  script.split_read = 0.5;
  script.short_write = 0.5;
  script.eagain = 0.3;
  FaultyTransport faulty(script);
  run_pipelined_campaign(faulty, 16);
  EXPECT_GT(faulty.counters().injected(), 0u);
}

TEST(SimFault, MidFrameResetClosesConnectionAndCounts) {
  // Every recv/send resets: the first event on the connection kills it.
  // The loop must destroy the connection exactly once (gauge returns to
  // zero) and survive to serve nothing else.
  FaultScript script;
  script.seed = 606;
  script.reset = 1.0;
  FaultyTransport faulty(script);
  TcpOptions tcp;
  tcp.socket_ops = &faulty;
  tcp.poll_interval_ms = 5;
  TcpTransport transport(small_options(), tcp);
  const int fd = connect_tcp(kLoopback, transport.port());
  ASSERT_GE(fd, 0);
  (void)send_all(fd, std::string(kPredict) + "\n");
  // The server tears the connection down; because its receive buffer
  // still holds the unread request, the close surfaces to the client as
  // an RST, not a clean FIN — either way recv stops, which is all this
  // waits for. The metrics counters below are updated before the
  // server-side close, so they are settled once recv returns.
  (void)wait_for_eof(fd);
  ::close(fd);
  EXPECT_GT(faulty.counters().resets.load(), 0u);
  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_accepted, 1u);
  EXPECT_EQ(snap.connections_open, 0u);
}

TEST(SimFault, AcceptFailuresDelayButNeverLoseConnections) {
  // Half of all accepts fail with EMFILE. The pending connection stays
  // in the listen backlog and the level-triggered listen fd re-fires,
  // so every client is eventually admitted and served.
  FaultScript script;
  script.seed = 707;
  script.accept_fail = 0.5;
  FaultyTransport faulty(script);
  TcpOptions tcp;
  tcp.socket_ops = &faulty;
  tcp.poll_interval_ms = 5;
  TcpTransport transport(small_options(), tcp);
  for (int i = 0; i < 8; ++i) {
    const int fd = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(send_all(fd, std::string(kPredict) + "\n"));
    const auto lines = read_lines(fd, 1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(Json::parse(lines[0]).bool_or("ok", false));
    ::close(fd);
  }
  const auto snap = transport.server().metrics().snapshot();
  EXPECT_EQ(snap.connections_accepted, 8u);
}

TEST(SimFault, HundredsOfRepliesThroughShortWritesStayLinear) {
  // Regression for the quadratic flush path: with the peer reading
  // slowly and 90% of writes cut short (≤128 bytes each), a pipeline of
  // 400 replies used to erase the front of the outbound buffer on EVERY
  // partial send — O(bytes²) memmove traffic that turned this exact
  // campaign into seconds of copying. The cursor-based buffers make it
  // proportional to bytes moved; the generous wall-clock bound only
  // trips on a quadratic regression.
  FaultScript script;
  script.seed = 808;
  script.short_write = 0.9;
  script.max_chunk = 128;
  FaultyTransport faulty(script);
  ServerOptions options = small_options();
  options.queue_capacity = 1024;  // the whole pipeline fits the lane
  options.cache_capacity = 1024;
  const auto t0 = std::chrono::steady_clock::now();
  run_pipelined_campaign(faulty, 400, options);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GT(faulty.counters().short_writes.load(), 100u);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
            30);
}

// ---- End to end: sharded loops under fire ---------------------------------

/// `conns` clients, each pipelining `per_conn` predicts with distinct
/// ids, against a sharded loop behind `ops`. Per-connection FIFO and
/// byte-level protocol correctness must survive whatever `ops` injects.
void run_sharded_campaign(SocketOps& ops, TcpOptions tcp, int conns,
                          int per_conn) {
  tcp.socket_ops = &ops;
  tcp.poll_interval_ms = 5;
  TcpTransport transport(small_options(), tcp);
  std::vector<int> fds;
  for (int c = 0; c < conns; ++c) {
    const int fd = connect_tcp(kLoopback, transport.port());
    ASSERT_GE(fd, 0);
    std::string block;
    for (int i = 0; i < per_conn; ++i) {
      Json req = Json::object();
      req.set("type", "predict");
      req.set("platform", "GTX Titan");
      req.set("id", c * 1000 + i);
      req.set("intensity", 1.0 + i);
      block += req.dump();
      block += '\n';
    }
    ASSERT_TRUE(send_all(fd, block));
    fds.push_back(fd);
  }
  for (int c = 0; c < conns; ++c) {
    const auto lines =
        read_lines(fds[static_cast<std::size_t>(c)],
                   static_cast<std::size_t>(per_conn));
    ASSERT_EQ(lines.size(), static_cast<std::size_t>(per_conn));
    for (int i = 0; i < per_conn; ++i) {
      const Json body = Json::parse(lines[static_cast<std::size_t>(i)]);
      EXPECT_TRUE(body.bool_or("ok", false)) << lines[static_cast<std::size_t>(i)];
      EXPECT_EQ(body.number_or("id", -1), c * 1000 + i);
    }
    ::close(fds[static_cast<std::size_t>(c)]);
  }
}

TEST(SimFault, ShardedHandoffLoopSurvivesEverythingAtOnce) {
  // Four shards in deterministic handoff mode, eight connections spread
  // round-robin — every shard thread runs its own fault stream and
  // every connection still gets its replies back in order.
  FaultScript script;
  script.seed = 909;
  script.split_read = 0.5;
  script.short_write = 0.5;
  script.eagain = 0.3;
  ShardedFaultyTransport faulty(script);
  TcpOptions tcp;
  tcp.shards = 4;
  tcp.use_reuseport = false;
  run_sharded_campaign(faulty, tcp, 8, 8);
  EXPECT_GT(faulty.totals().injected(), 0u);
  // Round-robin placement guarantees every shard served connections, so
  // every shard thread must have drawn from its own stream.
  EXPECT_EQ(faulty.thread_count(), 4u);
}

TEST(SimFault, ShardedReuseportLoopSurvivesEverythingAtOnce) {
  // Same campaign with kernel SO_REUSEPORT placement: the spread is the
  // kernel's choice, so only correctness and fault totals are asserted.
  FaultScript script;
  script.seed = 910;
  script.split_read = 0.5;
  script.short_write = 0.5;
  script.eagain = 0.3;
  ShardedFaultyTransport faulty(script);
  TcpOptions tcp;
  tcp.shards = 4;
  run_sharded_campaign(faulty, tcp, 8, 8);
  EXPECT_GT(faulty.totals().injected(), 0u);
  EXPECT_GE(faulty.thread_count(), 1u);
  EXPECT_LE(faulty.thread_count(), 4u);
}

}  // namespace
