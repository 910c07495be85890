// Reply order under pipelined mixed Light and Heavy traffic. Light
// requests finish on the thread that framed them while Heavy misses
// (fit, scenario_sweep, predict_batch over 64 elements) run on the
// worker pool, so a connection's replies are produced out of order and
// OrderedWriter must put them back. Each connection pipelines one
// interleaved stream of stateless shapes; its reply bytes must equal
// the sequential serve::handle_line replies, in order — over a 4-shard
// TCP front end, and through run_stream, which executes every line in
// input order on the calling thread.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstddef>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fit/online/snapshot.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"
#include "sim/request_pools.hpp"
#include "support/analysis_pool.hpp"

namespace {

using namespace archline;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kLinesPerConnection = 48;

/// Connection c's stream: the shapes in rotation, each drawn from its
/// pool at an offset that differs per connection.
std::vector<std::string> mixed_stream(std::size_t c) {
  const std::vector<std::vector<std::string>> shapes = {
      sim::make_predict_pool(16),
      sim::make_analysis_pool(),  // crossover, sensitivity, scenario_sweep
      sim::make_policy_pool(),
      sim::make_batch_pool(16, {8}),    // Light
      sim::make_batch_pool(4, {256}),   // Heavy
      sim::make_fit_pool(4, 7),         // Heavy
  };
  std::vector<std::string> stream;
  for (std::size_t k = 0; k < kLinesPerConnection; ++k) {
    const auto& pool = shapes[k % shapes.size()];
    stream.push_back(pool[(k / shapes.size() + 5 * c) % pool.size()]);
  }
  return stream;
}

/// The sequential reference: each line through bare handle_line on a
/// fresh store, one after another.
std::vector<std::string> sequential_replies(
    const std::vector<std::string>& stream) {
  fit::online::OnlineStore store;
  std::map<std::string, std::string> memo;
  std::vector<std::string> replies;
  for (const std::string& line : stream) {
    auto it = memo.find(line);
    if (it == memo.end())
      it = memo.emplace(line, serve::handle_line(line, {}, &store).body).first;
    replies.push_back(it->second);
  }
  return replies;
}

serve::ServerOptions pool_options() {
  serve::ServerOptions o;
  o.threads = 4;
  o.heavy_workers = 2;  // Heavy replies can also finish out of order
  o.queue_capacity = 1024;  // headroom: no legitimate overloads
  return o;
}

TEST(ServeOrdering, PipelinedMixedTrafficKeepsFifoOverFourShards) {
  serve::TcpOptions tcp;
  tcp.shards = 4;
  tcp.use_reuseport = false;  // round-robin: one connection per shard
  serve_tcp_testlib::TcpTransport transport(pool_options(), tcp);

  std::vector<std::vector<std::string>> got(kConnections);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kConnections; ++c)
    clients.emplace_back([&, c] {
      const int fd = serve_tcp_testlib::connect_tcp(
          serve_tcp_testlib::kLoopback, transport.port());
      if (fd < 0) return;
      std::string block;
      for (const std::string& line : mixed_stream(c)) block += line + "\n";
      if (serve_tcp_testlib::send_all(fd, block))
        got[c] = serve_tcp_testlib::read_lines(fd, kLinesPerConnection);
      ::close(fd);
    });
  for (auto& t : clients) t.join();

  for (std::size_t c = 0; c < kConnections; ++c) {
    const auto expected = sequential_replies(mixed_stream(c));
    ASSERT_EQ(got[c].size(), expected.size()) << "connection " << c;
    for (std::size_t k = 0; k < expected.size(); ++k)
      EXPECT_EQ(got[c][k], expected[k])
          << "connection " << c << " reply " << k;
  }
  const auto snap = transport.server().metrics().snapshot();
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GT(snap.shards[s].requests, 0u) << "shard " << s;
  EXPECT_GT(snap.heavy_latency.total, 0u);  // the pool did run Heavy work
}

TEST(ServeOrdering, RunStreamKeepsFifoForTheSameStreams) {
  serve::Server server(pool_options());
  server.start();
  for (std::size_t c = 0; c < kConnections; ++c) {
    const auto stream = mixed_stream(c);
    std::string text;
    for (const std::string& line : stream) text += line + "\n";
    std::istringstream in(text);
    std::ostringstream out;
    serve::run_stream(server, in, out);
    std::vector<std::string> got;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) got.push_back(line);
    EXPECT_EQ(got, sequential_replies(stream)) << "stream " << c;
  }
  server.shutdown();
}

}  // namespace
