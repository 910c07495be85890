// serve::ShardCore without sockets: framing across feeds, the final
// un-terminated line at EOF, the too_large residual, in-order release
// behind a Heavy reply, partial sends, idle expiry and the admission
// slice — driven the way a transport drives it, with no I/O. The last
// case runs the same byte streams through the campaign's driver and
// through a one-shard loopback TcpListener and compares the replies.

#include <gtest/gtest.h>

#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/shard_core.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"
#include "sim/campaign.hpp"
#include "sim/request_pools.hpp"

namespace {

using namespace archline::serve;
using Clock = ShardCore::Clock;
using serve_tcp_testlib::TcpTransport;
using serve_tcp_testlib::connect_tcp;
using serve_tcp_testlib::kLoopback;
using serve_tcp_testlib::read_lines;
using serve_tcp_testlib::send_all;

const std::string kPredict =
    R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":4})";

/// A never-started server (Heavy jobs run only through run_queued) and
/// one shard core over its own partition.
struct Fixture {
  explicit Fixture(int idle_timeout_ms = 0, std::size_t max_connections = 8)
      : server(options()),
        core(server, make_shard_partitions(server, 1).front(), 0, 1,
             max_connections, idle_timeout_ms) {}

  static ServerOptions options() {
    ServerOptions o;
    o.threads = 1;
    o.cache_capacity = 128;
    return o;
  }

  /// Sends everything outbound for `c` at `now`; returns the bytes.
  std::string send_all_out(ShardCore::Conn& c, Clock::time_point now) {
    std::string wire;
    while (ShardCore::has_outbound(c)) {
      std::array<iovec, ShardCore::kMaxIov> iov;
      const int cnt = ShardCore::gather(c, iov.data());
      std::size_t n = 0;
      for (int i = 0; i < cnt; ++i) {
        wire.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
        n += iov[i].iov_len;
      }
      core.sent(c, n, now);
    }
    return wire;
  }

  /// Runs one queued Heavy job and frames every completion it pushed.
  void run_heavy() {
    ASSERT_TRUE(server.run_queued());
    std::vector<ShardCore::Completion> done;
    core.take_completions(done);
    for (ShardCore::Completion& c : done) core.complete(std::move(c));
  }

  Server server;
  ShardCore core;
  Clock::time_point t0{};
};

std::string heavy_line() {
  // refit is a Heavy endpoint; with no observations it fails fast.
  return archline::sim::make_refit_pool().front();
}

TEST(ServeShardCore, LineSplitAcrossThreeFeedsIsOneRequest) {
  Fixture f;
  ShardCore::Conn& c = *f.core.admit(1, f.t0);
  const std::string line = kPredict + "\n";
  f.core.receive(c, std::string_view(line).substr(0, 10), f.t0);
  f.core.receive(c, std::string_view(line).substr(10, 20), f.t0);
  EXPECT_FALSE(ShardCore::has_outbound(c));
  EXPECT_EQ(c.submitted, 0u);
  f.core.receive(c, std::string_view(line).substr(30), f.t0);
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_EQ(f.send_all_out(c, f.t0), f.server.handle_now(kPredict) + "\n");
}

TEST(ServeShardCore, FinalUnterminatedLineIsAnsweredAtEof) {
  Fixture f;
  ShardCore::Conn& c = *f.core.admit(1, f.t0);
  f.core.receive(c, kPredict + "\n" + R"({"type":"platforms"})", f.t0);
  EXPECT_EQ(c.submitted, 1u);
  EXPECT_FALSE(ShardCore::finished(c));
  f.core.receive_eof(c, f.t0);
  EXPECT_EQ(c.submitted, 2u);
  EXPECT_TRUE(c.half_closed);
  EXPECT_EQ(f.send_all_out(c, f.t0),
            f.server.handle_now(kPredict) + "\n" +
                f.server.handle_now(R"({"type":"platforms"})") + "\n");
  EXPECT_TRUE(ShardCore::finished(c));
}

TEST(ServeShardCore, TooLargeResidualIsAnsweredAndReadingStops) {
  Fixture f;
  ShardCore::Conn& c = *f.core.admit(1, f.t0);
  const std::size_t limit = f.server.options().limits.max_request_bytes;
  // A complete request first: only the residual after it is bounded.
  f.core.receive(c, kPredict + "\n" + std::string(limit + 1, 'x'), f.t0);
  EXPECT_TRUE(c.half_closed);
  EXPECT_TRUE(c.in.empty());
  EXPECT_EQ(f.send_all_out(c, f.t0),
            f.server.handle_now(kPredict) + "\n" +
                error_body("too_large", "request line never ended") + "\n");
  EXPECT_TRUE(ShardCore::finished(c));
}

TEST(ServeShardCore, InlineReplyIsHeldBehindAPendingHeavyReply) {
  Fixture f;
  ShardCore::Conn& c = *f.core.admit(1, f.t0);
  const std::string heavy = heavy_line();
  f.core.receive(c, heavy + "\n" + kPredict + "\n", f.t0);
  EXPECT_EQ(c.submitted, 2u);
  // The predict ran inline, but the Heavy reply ahead of it is owed.
  EXPECT_FALSE(ShardCore::has_outbound(c));
  EXPECT_EQ(c.written, 0u);
  f.run_heavy();
  EXPECT_EQ(c.written, 2u);
  EXPECT_EQ(f.send_all_out(c, f.t0), f.server.handle_now(heavy) + "\n" +
                                         f.server.handle_now(kPredict) + "\n");
}

TEST(ServeShardCore, SendCutMidReplyResumesWhereItStopped) {
  Fixture f;
  ShardCore::Conn& c = *f.core.admit(1, f.t0);
  f.core.receive(c, heavy_line() + "\n", f.t0);
  f.run_heavy();  // a worker's reply: a whole body in `pending`
  f.core.receive(c, kPredict + "\n", f.t0);
  std::array<iovec, ShardCore::kMaxIov> iov;
  const int cnt = ShardCore::gather(c, iov.data());
  std::string expected;
  for (int i = 0; i < cnt; ++i)
    expected.append(static_cast<const char*>(iov[i].iov_base),
                    iov[i].iov_len);
  // Cut the first send 7 bytes into the first reply, then drain.
  std::string wire = expected.substr(0, 7);
  f.core.sent(c, 7, f.t0);
  wire += f.send_all_out(c, f.t0);
  EXPECT_EQ(wire, expected);
  EXPECT_EQ(wire, f.server.handle_now(heavy_line()) + "\n" +
                      f.server.handle_now(kPredict) + "\n");
}

TEST(ServeShardCore, IdleExpiryWaitsWhileAReplyIsOwed) {
  Fixture f(/*idle_timeout_ms=*/1000);
  ShardCore::Conn& c = *f.core.admit(1, f.t0);
  EXPECT_EQ(f.core.expiry(c),
            f.t0 + std::chrono::milliseconds(1000) + Clock::duration(1));
  f.core.receive(c, heavy_line() + "\n", f.t0);
  const Clock::time_point later = f.t0 + std::chrono::hours(1);
  EXPECT_EQ(f.core.expiry(c), Clock::time_point::max());
  EXPECT_FALSE(f.core.expired(c, later));
  std::vector<ShardCore::ConnId> expired;
  f.core.collect_expired(later, expired);
  EXPECT_TRUE(expired.empty());
  // Answered and sent: the timer runs again from the send.
  f.run_heavy();
  EXPECT_EQ(f.core.expiry(c), Clock::time_point::max());  // unsent
  (void)f.send_all_out(c, later);
  EXPECT_FALSE(f.core.expired(c, later + std::chrono::milliseconds(1000)));
  EXPECT_TRUE(f.core.expired(c, later + std::chrono::milliseconds(1001)));
  f.core.collect_expired(later + std::chrono::seconds(2), expired);
  EXPECT_EQ(expired, std::vector<ShardCore::ConnId>{1});
}

TEST(ServeShardCore, AdmissionSlicesSumToTheCap) {
  Server server(Fixture::options());
  std::size_t admitted = 0;
  for (int shard = 0; shard < 3; ++shard) {
    ShardCore core(server, server.cache(), shard, 3, 10, 0);
    std::size_t slice = 0;
    while (core.admit(slice + 1, Clock::time_point{}) != nullptr) ++slice;
    EXPECT_EQ(slice, shard == 0 ? 4u : 3u);  // remainder first
    admitted += slice;
  }
  EXPECT_EQ(admitted, 10u);
  EXPECT_EQ(server.metrics().snapshot().connections_rejected, 3u);
}

TEST(ServeShardCore, CampaignDriverAndLoopbackTcpSendTheSameBytes) {
  // Stateless traffic (no observe, no stats): predicts, Light and
  // Heavy batches, Heavy refits, policy advice and malformed lines,
  // each connection's Light replies queued behind its Heavy ones.
  const auto predict = archline::sim::make_predict_pool(8);
  const auto batch = archline::sim::make_batch_pool(8);
  const auto refit = archline::sim::make_refit_pool();
  const auto policy = archline::sim::make_policy_pool();
  const auto bad = archline::sim::make_bad_json_pool(1 << 20);
  std::vector<std::string> streams(3);
  std::vector<std::size_t> lines(streams.size(), 0);
  for (std::size_t k = 0; k < streams.size(); ++k) {
    for (std::size_t i = 0; i < 8; ++i) {
      for (const std::string* line :
           {&refit[(k + i) % refit.size()], &predict[(k + i) % 8],
            &batch[(k + i) % 8], &policy[(k * 3 + i) % policy.size()],
            // The oversized line would be cut by TCP's 64 KiB reads.
            &bad[(k + i) % (bad.size() - 1)], &predict[(k + 2 * i) % 8]}) {
        streams[k] += *line + "\n";
        ++lines[k];
      }
    }
  }

  archline::sim::CampaignOptions campaign;
  campaign.shards = 1;
  const std::vector<std::string> modeled =
      archline::sim::Campaign::replay(campaign, streams);
  ASSERT_EQ(modeled.size(), streams.size());

  ServerOptions server;
  server.threads = 2;
  TcpTransport transport(server, TcpOptions{});
  std::vector<int> fds;
  for (const std::string& stream : streams) {
    fds.push_back(connect_tcp(kLoopback, transport.port()));
    ASSERT_GE(fds.back(), 0);
    ASSERT_TRUE(send_all(fds.back(), stream));
  }
  for (std::size_t k = 0; k < streams.size(); ++k) {
    std::string wire;
    for (const std::string& reply : read_lines(fds[k], lines[k]))
      wire += reply + "\n";
    EXPECT_EQ(wire, modeled[k]) << "connection " << k;
    ::close(fds[k]);
  }
}

}  // namespace
