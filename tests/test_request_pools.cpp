// Tests for the shared request vocabulary (sim/request_pools.hpp): every
// pool line is a request the protocol accepts (or, for the bad-json
// pool, rejects with its documented code), seeded pools are pure
// functions of their seed, and each pool's bytes are pinned by digest
// so serve_loadgen replays and same-seed campaign reports cannot drift.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fit/online/snapshot.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "sim/request_pools.hpp"

namespace {

using namespace archline;
using sim::make_analysis_pool;
using sim::make_bad_json_pool;
using sim::make_batch_pool;
using sim::make_fit_pool;
using sim::make_observe_pool;
using sim::make_params_pool;
using sim::make_policy_pool;
using sim::make_predict_pool;
using sim::make_refit_pool;
using sim::make_trace_pool;

/// FNV-1a 64 over the pool's lines, each followed by '\n'.
std::uint64_t digest(const std::vector<std::string>& pool) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ull;
  };
  for (const std::string& line : pool) {
    for (const char c : line) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return h;
}

void expect_all_ok(const std::vector<std::string>& pool,
                   fit::online::OnlineStore& store, const char* name) {
  ASSERT_FALSE(pool.empty()) << name;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const serve::Reply reply = serve::handle_line(pool[i], {}, &store);
    EXPECT_EQ(reply.body.rfind("{\"ok\":true", 0), 0u)
        << name << "[" << i << "]: " << reply.body;
  }
}

TEST(RequestPools, EveryLineIsAnsweredOk) {
  fit::online::OnlineStore store;
  expect_all_ok(make_predict_pool(64), store, "predict");
  expect_all_ok(make_batch_pool(64), store, "batch");
  expect_all_ok(make_batch_pool(8, {1}), store, "batch{1}");
  expect_all_ok(make_params_pool(), store, "params");
  expect_all_ok(make_policy_pool(), store, "policy");
  expect_all_ok(make_trace_pool(), store, "trace");
  expect_all_ok(make_analysis_pool(), store, "analysis");
  expect_all_ok(make_fit_pool(4, 42), store, "fit");
  // Observations first, so every refit has data to re-solve.
  expect_all_ok(make_observe_pool(24, 42), store, "observe");
  expect_all_ok(make_refit_pool(), store, "refit");
}

TEST(RequestPools, BadJsonLinesReturnTheirDocumentedCodes) {
  const serve::ProtocolLimits limits;
  const auto pool = make_bad_json_pool(limits.max_request_bytes);
  const std::vector<std::string> codes = {
      "parse_error", "parse_error",      "bad_request", "bad_request",
      "unknown_platform", "bad_request", "too_large"};
  ASSERT_EQ(pool.size(), codes.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const serve::Reply reply = serve::handle_line(pool[i], limits);
    EXPECT_FALSE(reply.ok) << i;
    EXPECT_EQ(serve::Json::parse(reply.body).string_or("error", ""),
              codes[i])
        << i << ": " << reply.body;
  }
}

TEST(RequestPools, SeededPoolsArePureFunctionsOfTheSeed) {
  EXPECT_EQ(make_observe_pool(16, 5), make_observe_pool(16, 5));
  EXPECT_EQ(make_fit_pool(4, 5), make_fit_pool(4, 5));
  EXPECT_NE(make_observe_pool(16, 5), make_observe_pool(16, 6));
  EXPECT_NE(make_fit_pool(4, 5), make_fit_pool(4, 6));
  EXPECT_EQ(make_predict_pool(16), make_predict_pool(16));
  EXPECT_EQ(make_trace_pool(), make_trace_pool());
}

TEST(RequestPools, UniqueIdMakesDistinctKeysForTheSameRequest) {
  const std::string fit = make_fit_pool(1, 42).front();
  const std::string a = sim::with_unique_id(fit, 1);
  const std::string b = sim::with_unique_id(fit, 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind(R"({"id":1,"type":"fit",)", 0), 0u) << a;
  EXPECT_EQ(a.substr(a.find(',') + 1), fit.substr(1));
}

// Digests of the pools at serve_loadgen's defaults (--keys 64, --seed
// 42, 4 fit keys) and sim::Campaign's (64 predict / 16 batch / 12
// observe keys, seed 1). A change here changes loadgen request streams
// and same-seed campaign reports.
TEST(RequestPools, BytesMatchThePinnedDigests) {
  EXPECT_EQ(digest(make_predict_pool(64)), 0x36d4a1f01a593f6bull);
  EXPECT_EQ(digest(make_batch_pool(64)), 0x4290d860e5698ea0ull);
  EXPECT_EQ(digest(make_batch_pool(16)), 0x91b89aa319b80bdaull);
  EXPECT_EQ(digest(make_observe_pool(64, 42)), 0x97797108210d714dull);
  EXPECT_EQ(digest(make_observe_pool(12, 1)), 0xda27cd7e9f807418ull);
  EXPECT_EQ(digest(make_fit_pool(4, 42)), 0x93a171db0fba41c4ull);
  EXPECT_EQ(digest(make_params_pool()), 0x05307a9ab00b04b4ull);
  EXPECT_EQ(digest(make_trace_pool()), 0xe6daa1366921fcb1ull);
  EXPECT_EQ(digest(make_policy_pool()), 0x07cf5722bcc03882ull);
  EXPECT_EQ(digest(make_refit_pool()), 0x4cecdcf520c8ca8eull);
  EXPECT_EQ(digest(make_bad_json_pool(std::size_t{1} << 20)),
            0xd9eddc6ee3539071ull);
  EXPECT_EQ(make_trace_pool().size(), 156u);
  EXPECT_EQ(make_policy_pool().size(), 36u);
}

TEST(RequestPools, AnalysisPoolBytesArePinned) {
  const auto pool = make_analysis_pool();
  EXPECT_EQ(pool.size(), 36u);
  EXPECT_EQ(digest(pool), 0xf07874aef50547fdull);
}

}  // namespace
