// Golden-reply parity: every request shape the protocol supports, with
// its exact expected response bytes, captured in tests/data/. The
// protocol's replies are deterministic by design (fixed float
// formatting, fixed key order) — that is what makes the response cache
// and the loadgen replay-verification work — so any byte drift in a
// reply is an API break, caught here.
//
// Each CACHEABLE request runs through Server::handle_now TWICE: the
// first pass exercises the full parse -> registry dispatch -> render
// path (cache miss), the second must return the identical bytes from
// the cache. Non-cacheable endpoints (observe, refit) run ONCE — they
// mutate the online-fit store, so replaying them would put the server
// in a different state than the single-pass `--stdio` regeneration run
// that produced the expected replies. The whole corpus also goes once
// through run_stream, the loop behind `--stdio`. A reply-shape change
// that is intentional must regenerate the corpus by piping
// tests/data/serve_golden_requests.txt through
// `archline_serverd --stdio --quiet` into serve_golden_replies.txt
// (--stdio executes lines in input order, which the state-mutating
// observe/refit entries require).

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "serve_tcp_testlib.hpp"

#ifndef ARCHLINE_TEST_DATA_DIR
#error "ARCHLINE_TEST_DATA_DIR must point at tests/data"
#endif
#ifndef ARCHLINE_SERVER_DOC
#error "ARCHLINE_SERVER_DOC must point at docs/SERVER.md"
#endif

namespace {

using namespace archline::serve;

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// True when the request dispatches to a cacheable endpoint — i.e. the
/// replay on pass 2 is a pure function of the request. Malformed lines
/// and unknown types count as cacheable: their error replies never
/// mutate state, so replaying them is byte-stable either way.
bool replay_is_pure(const std::string& line) {
  try {
    const Json req = Json::parse(line);
    const Json* type = req.find("type");
    if (!type || !type->is_string()) return true;
    const Endpoint* e = Registry::instance().find(type->as_string_view());
    if (!e) return true;
    if (!e->cacheable) return false;
    // Per-request exemptions (fit with "seed_online") mutate state too:
    // replaying one would seed the online window twice.
    return !(e->cache_exempt && e->cache_exempt(req));
  } catch (const std::exception&) {
    return true;
  }
}

TEST(ServeGolden, EveryRequestShapeRepliesByteIdentically) {
  const std::string dir = ARCHLINE_TEST_DATA_DIR;
  const auto requests = read_lines(dir + "/serve_golden_requests.txt");
  const auto replies = read_lines(dir + "/serve_golden_replies.txt");
  ASSERT_FALSE(requests.empty()) << "corpus missing or unreadable";
  ASSERT_EQ(requests.size(), replies.size())
      << "corpus files out of sync — regenerate both";

  ServerOptions options;
  options.threads = 2;
  Server server(options);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // Pass 1: full evaluation (cache miss).
    EXPECT_EQ(server.handle_now(requests[i]), replies[i])
        << "miss path diverged on line " << i + 1 << ": " << requests[i];
    // Pass 2: cached replay must be the same bytes. Skipped for
    // state-mutating endpoints (observe/refit) so the server walks the
    // exact state sequence of the single-pass regeneration run.
    if (replay_is_pure(requests[i])) {
      EXPECT_EQ(server.handle_now(requests[i]), replies[i])
          << "hit path diverged on line " << i + 1 << ": " << requests[i];
    }
  }

  // The corpus must exercise both hot paths: successful cacheable
  // replies (hits on pass 2) and error replies (never cached).
  const auto cache = server.cache_stats();
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(server.metrics().snapshot().errors, 0u);
}

TEST(ServeGolden, StdioStreamRepliesByteIdentically) {
  // The corpus in one pass through run_stream, exactly as
  // `archline_serverd --stdio` regenerates it: the output must be the
  // reply file, line for line.
  const std::string dir = ARCHLINE_TEST_DATA_DIR;
  std::ifstream requests(dir + "/serve_golden_requests.txt");
  const auto replies = read_lines(dir + "/serve_golden_replies.txt");
  ASSERT_TRUE(requests && !replies.empty()) << "corpus missing or unreadable";

  ServerOptions options;
  options.threads = 2;
  Server server(options);
  server.start();
  std::ostringstream out;
  run_stream(server, requests, out);
  server.shutdown();

  std::istringstream got(out.str());
  std::size_t n = 0;
  for (std::string line; std::getline(got, line); ++n) {
    ASSERT_LT(n, replies.size()) << "run_stream wrote extra lines";
    ASSERT_EQ(line, replies[n]) << "run_stream diverged on line " << n + 1;
  }
  EXPECT_EQ(n, replies.size());
}

TEST(ServeGolden, ShardedTransportRepliesByteIdentically) {
  // The same corpus through a four-shard TCP front end. Replays run
  // closed-loop (send one line, await its reply) over a connection that
  // rotates every request, so deterministic handoff placement walks the
  // corpus across every shard — the state-mutating observe/refit lines
  // still execute in exactly the regeneration order, and shard-local
  // cache partitions must not change a single reply byte.
  const std::string dir = ARCHLINE_TEST_DATA_DIR;
  const auto requests = read_lines(dir + "/serve_golden_requests.txt");
  const auto replies = read_lines(dir + "/serve_golden_replies.txt");
  ASSERT_FALSE(requests.empty()) << "corpus missing or unreadable";
  ASSERT_EQ(requests.size(), replies.size());

  ServerOptions options;
  options.threads = 2;
  archline::serve::TcpOptions tcp;
  tcp.shards = 4;
  tcp.use_reuseport = false;  // round-robin: the corpus visits every shard
  serve_tcp_testlib::TcpTransport transport(options, tcp);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const int fd = serve_tcp_testlib::connect_tcp(
        serve_tcp_testlib::kLoopback, transport.port());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(serve_tcp_testlib::send_all(fd, requests[i] + "\n"));
    const auto got = serve_tcp_testlib::read_lines(fd, 1);
    ::close(fd);
    ASSERT_EQ(got.size(), 1u) << "no reply on line " << i + 1;
    EXPECT_EQ(got[0], replies[i])
        << "sharded replay diverged on line " << i + 1 << ": " << requests[i];
  }
  const auto snap = transport.server().metrics().snapshot();
  ASSERT_EQ(snap.transport_shards, 4u);
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_GT(snap.shards[s].requests, 0u)
        << "shard " << s << " never saw a corpus line";
}

// docs/SERVER.md's `fit` example is one golden pair copied verbatim,
// so a change to fit output fails here until the doc is copied again.
TEST(ServeGolden, ServerDocFitExampleIsAGoldenPair) {
  const std::string request_mark = "→ ";
  const std::string reply_mark = "← ";
  const auto doc = read_lines(ARCHLINE_SERVER_DOC);
  auto line = std::find(doc.begin(), doc.end(), "### fit");
  ASSERT_TRUE(line != doc.end()) << "no fit section in " << ARCHLINE_SERVER_DOC;
  std::string request;
  std::string reply;
  for (++line; line != doc.end() && !line->starts_with("### "); ++line) {
    if (request.empty() && line->starts_with(request_mark))
      request = line->substr(request_mark.size());
    if (reply.empty() && line->starts_with(reply_mark))
      reply = line->substr(reply_mark.size());
  }
  ASSERT_FALSE(request.empty()) << "the fit example has no request line";
  ASSERT_FALSE(reply.empty()) << "the fit example has no reply line";

  const std::string dir = ARCHLINE_TEST_DATA_DIR;
  const auto requests = read_lines(dir + "/serve_golden_requests.txt");
  const auto replies = read_lines(dir + "/serve_golden_replies.txt");
  ASSERT_EQ(requests.size(), replies.size());
  const auto at = std::find(requests.begin(), requests.end(), request);
  ASSERT_TRUE(at != requests.end())
      << "the fit example's request is not a corpus line: " << request;
  EXPECT_EQ(reply, replies[at - requests.begin()])
      << "the fit example's reply differs from the corpus";
}

}  // namespace
