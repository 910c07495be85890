// In-process fuzz harness tests: mutation-engine determinism, reply
// validation, a seeded smoke campaign through Server::handle_into
// (the CI ASan job re-runs the same campaign at 50k iterations via
// tools/serve_fuzz), and the JSON codec round-trip property
// dump(parse(x)) == dump(parse(dump(parse(x)))) over mutated corpus
// lines — serializer output must be a fixed point of parse∘dump, or
// the response cache and the loadgen's byte-identity replay both lie.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sim/fuzz.hpp"
#include "stats/rng.hpp"

#ifndef ARCHLINE_TEST_DATA_DIR
#define ARCHLINE_TEST_DATA_DIR "tests/data"
#endif

namespace {

using namespace archline::sim;
using archline::serve::Json;
using archline::serve::JsonError;
using archline::serve::Server;
using archline::serve::ServerOptions;
using archline::stats::Rng;

std::vector<std::string> golden_corpus() {
  const std::vector<std::string> corpus = load_corpus(
      std::string(ARCHLINE_TEST_DATA_DIR) + "/serve_golden_requests.txt");
  EXPECT_GE(corpus.size(), 60u);
  return corpus;
}

TEST(ServeFuzz, MutationEngineIsDeterministic) {
  const auto corpus = golden_corpus();
  for (std::uint64_t seed : {1ull, 42ull, 12345ull}) {
    Rng a(seed), b(seed);
    for (int i = 0; i < 200; ++i)
      EXPECT_EQ(mutate_line(corpus, a, 4), mutate_line(corpus, b, 4));
  }
}

TEST(ServeFuzz, MutantsDifferFromCorpus) {
  // Not a tautology: an engine whose operators all no-op (e.g. every
  // offset lands out of range) would fuzz nothing. Most mutants must
  // actually differ from every corpus line.
  const auto corpus = golden_corpus();
  Rng rng(9);
  int changed = 0;
  constexpr int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    const std::string m = mutate_line(corpus, rng, 4);
    bool in_corpus = false;
    for (const std::string& line : corpus)
      if (line == m) in_corpus = true;
    if (!in_corpus) ++changed;
  }
  EXPECT_GT(changed, kTrials / 2);
}

TEST(ServeFuzz, ReplyValidatorAcceptsProtocolReplies) {
  EXPECT_TRUE(reply_acceptable(R"({"ok":true,"type":"predict"})", nullptr));
  EXPECT_TRUE(reply_acceptable(
      R"({"ok":false,"error":"parse_error","message":"x"})", nullptr));
  EXPECT_TRUE(reply_acceptable(
      R"({"ok":false,"error":"deadline_exceeded"})", nullptr));
  EXPECT_TRUE(reply_acceptable(
      R"({"ok":false,"error":"infeasible","message":"x"})", nullptr));
}

TEST(ServeFuzz, ReplyValidatorRejectsContractViolations) {
  std::string why;
  EXPECT_FALSE(reply_acceptable("", &why));
  EXPECT_FALSE(reply_acceptable("not json", &why));
  EXPECT_FALSE(reply_acceptable(R"(["ok"])", &why));           // not object
  EXPECT_FALSE(reply_acceptable(R"({"type":"x"})", &why));     // no ok
  EXPECT_FALSE(reply_acceptable(R"({"ok":"yes"})", &why));     // not bool
  EXPECT_FALSE(reply_acceptable(R"({"ok":false})", &why));     // no error
  EXPECT_FALSE(
      reply_acceptable(R"({"ok":false,"error":"made_up_code"})", &why));
  EXPECT_EQ(why, "unknown error code: made_up_code");
  EXPECT_FALSE(reply_acceptable("{\"ok\":true}\n{\"ok\":true}", &why));
}

TEST(ServeFuzz, SmokeCampaignIsCleanAndReproducible) {
  // A scaled-down version of the CI fuzz smoke stage. Every reply must
  // honor the protocol contract, and a finding-free campaign must
  // produce identical tallies when re-run from the same seed.
  const auto corpus = golden_corpus();
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 3000;
  Server server;
  const FuzzReport first = run_fuzz(server, corpus, options);
  EXPECT_EQ(first.iterations, options.iterations);
  for (const FuzzFinding& f : first.findings)
    ADD_FAILURE() << "iteration " << f.iteration << ": " << f.why
                  << "\n  input: " << f.input << "\n  reply: " << f.reply;
  EXPECT_GT(first.ok_replies, 0u);     // some mutants stay valid
  EXPECT_GT(first.error_replies, 0u);  // most do not

  Server fresh;  // identical config, cold cache
  const FuzzReport second = run_fuzz(fresh, corpus, options);
  EXPECT_EQ(second.ok_replies, first.ok_replies);
  EXPECT_EQ(second.error_replies, first.error_replies);
  EXPECT_EQ(second.findings.size(), first.findings.size());
}

TEST(ServeFuzz, IterationsAreIndependentOfCampaignStart) {
  // Iteration k must generate the same input whether the campaign
  // started at 0 or at k — the property that lets a finding reproduce
  // with --begin k --iters 1.
  const auto corpus = golden_corpus();
  for (const std::size_t k : {0u, 17u, 999u}) {
    Rng direct(1, k);
    const std::string expected = mutate_line(corpus, direct, 4);
    Rng again(1, k);
    EXPECT_EQ(mutate_line(corpus, again, 4), expected);
  }
}

// ---- JSON codec round-trip property ---------------------------------------

TEST(ServeFuzz, DumpParseDumpIsAFixedPoint) {
  // For every mutant that parses at all: dump(parse(x)) must equal
  // dump(parse(dump(parse(x)))). If the serializer ever emits bytes its
  // own parser reads back differently (number formatting, escapes),
  // cached replies and replayed replies diverge.
  const auto corpus = golden_corpus();
  Rng rng(77);
  int parsed_count = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::string mutant = mutate_line(corpus, rng, 4);
    Json first;
    try {
      first = Json::parse(mutant);
    } catch (const JsonError&) {
      continue;  // only round-trippable inputs participate
    }
    ++parsed_count;
    const std::string once = first.dump();
    std::string twice;
    ASSERT_NO_THROW(twice = Json::parse(once).dump())
        << "serializer output failed to re-parse: " << once;
    EXPECT_EQ(once, twice) << "round-trip mismatch for input: " << mutant;
  }
  // The corpus seeds real requests, so a healthy fraction must parse.
  EXPECT_GT(parsed_count, 100);
}

TEST(ServeFuzz, NumberFormattingRoundTrips) {
  // The serializer's number format is the usual escape/precision trap;
  // pin the edge cases explicitly.
  for (const double v : {0.0, -0.0, 1.0, -1.5, 0.1, 1e-308, 1e308,
                         9007199254740991.0,  // 2^53 - 1
                         9007199254740993.0,  // 2^53 + 1: not integral-exact
                         3.141592653589793, 2.2250738585072014e-308}) {
    const std::string once = Json(v).dump();
    const std::string twice = Json::parse(once).dump();
    EXPECT_EQ(once, twice) << "for value " << v;
  }
}

}  // namespace
