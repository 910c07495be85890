// Wire-protocol tests: JSON codec round-trips, malformed / truncated /
// oversized requests degrade to structured errors (never a crash), and
// each request type returns values consistent with calling the model
// stack directly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>

#include "core/analysis.hpp"
#include "core/roofline.hpp"
#include "core/scenarios.hpp"
#include "core/sensitivity.hpp"
#include "platforms/platform_db.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace archline;
using serve::Json;

// ---- JSON codec -----------------------------------------------------------

TEST(ServeJson, RoundTripsScalars) {
  for (const char* doc :
       {"null", "true", "false", "0", "-1", "3.5", "1e9", "0.1",
        "\"hello\"", "\"\"", "[]", "{}"}) {
    const Json v = Json::parse(doc);
    EXPECT_EQ(Json::parse(v.dump()), v) << doc;
  }
}

TEST(ServeJson, RoundTripsNested) {
  const std::string doc =
      R"({"a":[1,2.5,{"b":"x","c":[true,null]}],"d":{"e":-0.001}})";
  const Json v = Json::parse(doc);
  // dump() is canonical: parse(dump(parse(x))) == parse(x) and the dump
  // of a dump is a fixed point.
  EXPECT_EQ(v.dump(), doc);
  EXPECT_EQ(Json::parse(v.dump()).dump(), doc);
}

TEST(ServeJson, NumberFormatRoundTripsDoubles) {
  for (const double x : {0.1, 1.0 / 3.0, 6.02e23, 1e-300, -0.0, 12345.678,
                         9.007199254740992e15}) {
    const std::string s = Json::format_number(x);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), x) << s;
  }
}

// format_number is DEFINED as "the first precision in 1..17 whose %.*g
// round-trips" but implemented without the probe loop (json.cpp). This
// pins the implementation to the definition byte-for-byte: edge values,
// every power of two and ten (the binade boundaries where shortest
// digits and %g probing can legitimately disagree), and a large random
// sample of bit patterns.
std::string reference_format(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

TEST(ServeJson, NumberFormatMatchesProbeLoopOracle) {
  const auto check = [](double v) {
    ASSERT_EQ(Json::format_number(v), reference_format(v))
        << "bits " << std::hex << std::bit_cast<std::uint64_t>(v);
  };
  for (const double v :
       {0.0, -0.0, 0.1, 0.5, 1e-5, 9.99999e-5, 1e15, 1e16,
        9007199254740991.0, 9007199254740993.0, 4.9406564584124654e-324,
        2.2250738585072014e-308, 1.7976931348623157e308, 1.0 / 3.0,
        0.30000000000000004, 6.02214076e23}) {
    check(v);
    check(-v);
  }
  for (int e = -320; e <= 308; ++e) {
    check(std::pow(10.0, e));
    check(3.0 * std::pow(10.0, e));
  }
  for (int e = -1070; e <= 1020; ++e) check(std::ldexp(1.0, e));
  std::mt19937_64 rng(12345);
  for (int i = 0; i < 200000; ++i) {
    const double v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) check(v);
  }
}

TEST(ServeJson, IntegersPrintWithoutExponent) {
  EXPECT_EQ(Json(1e9).dump(), "1000000000");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-7.0).dump(), "-7");
}

TEST(ServeJson, StringEscapes) {
  const Json v = Json::parse(R"("a\"b\\c\nd\u0041\u00e9\u20ac")");
  EXPECT_EQ(v.as_string_view(), "a\"b\\c\ndA\xC3\xA9\xE2\x82\xAC");
  EXPECT_EQ(Json::parse(v.dump()), v);
}

TEST(ServeJson, SurrogatePairDecodes) {
  const Json v = Json::parse(R"("\ud83d\ude00")");
  EXPECT_EQ(v.as_string_view(), "\xF0\x9F\x98\x80");  // U+1F600
}

TEST(ServeJson, RejectsMalformed) {
  for (const char* doc :
       {"", "{", "[", "\"unterminated", "{\"a\":}", "{\"a\" 1}", "[1,]",
        "{,}", "tru", "nul", "01", "1.", "1e", "--1", "\"\\q\"",
        "\"\\ud800\"", "{\"a\":1}x", "[1] []", "\x01"}) {
    EXPECT_THROW((void)Json::parse(doc), serve::JsonError) << doc;
  }
}

TEST(ServeJson, RejectsExcessiveDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  EXPECT_THROW((void)Json::parse(deep, 64), serve::JsonError);
  EXPECT_NO_THROW((void)Json::parse(deep, 128));
}

TEST(ServeJson, ObjectSetOverwritesInPlace) {
  Json obj = Json::object();
  obj.set("a", 1);
  obj.set("b", 2);
  obj.set("a", 3);
  EXPECT_EQ(obj.dump(), R"({"a":3,"b":2})");
}

// ---- Error handling: malformed requests never crash -----------------------

std::string body_of(std::string_view line) {
  return serve::handle_line(line).body;
}

TEST(ServeProtocol, MalformedRequestsReturnStructuredErrors) {
  for (const char* line :
       {"", "garbage", "{", "[1,2,3]", "42", "\"predict\"", "{}",
        R"({"type":42})", R"({"type":"warp_drive"})",
        R"({"type":"predict"})", R"({"type":"predict","platform":7})",
        R"({"type":"predict","platform":"GTX Titan"})",
        R"({"type":"predict","platform":"No Such","intensity":1})",
        R"({"type":"predict","platform":"GTX Titan","intensity":-2})",
        R"({"type":"predict","platform":"GTX Titan","bytes":0})",
        R"({"type":"fit"})", R"({"type":"fit","observations":3})",
        R"({"type":"fit","observations":[1]})",
        R"({"type":"scenario","platform":"GTX Titan"})",
        R"({"type":"scenario","kind":"nope","platform":"GTX Titan"})",
        R"({"type":"crossover","a":"GTX Titan"})"}) {
    const serve::Reply reply = serve::handle_line(line);
    EXPECT_FALSE(reply.ok) << line;
    EXPECT_FALSE(reply.cacheable) << line;
    const Json parsed = Json::parse(reply.body);  // must itself be valid JSON
    EXPECT_FALSE(parsed.bool_or("ok", true)) << line;
    EXPECT_TRUE(parsed.find("error")) << line;
    EXPECT_TRUE(parsed.find("message")) << line;
  }
}

TEST(ServeProtocol, TruncatedRequestIsParseError) {
  const std::string full =
      R"({"type":"predict","platform":"GTX Titan","intensity":4})";
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const serve::Reply reply = serve::handle_line(full.substr(0, cut));
    EXPECT_FALSE(reply.ok) << cut;
    EXPECT_NO_THROW((void)Json::parse(reply.body)) << cut;
  }
}

TEST(ServeProtocol, OversizedRequestRejected) {
  serve::ProtocolLimits limits;
  limits.max_request_bytes = 64;
  const std::string big(1000, ' ');
  const serve::Reply reply = serve::handle_line(big, limits);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(Json::parse(reply.body).string_or("error", ""), "too_large");
}

TEST(ServeProtocol, ErrorsEchoRequestId) {
  const Json parsed = Json::parse(
      body_of(R"({"type":"predict","id":"req-17","platform":"No Such"})"));
  EXPECT_EQ(parsed.string_or("id", ""), "req-17");
  EXPECT_EQ(parsed.string_or("error", ""), "unknown_platform");
}

// ---- Request semantics ----------------------------------------------------

TEST(ServeProtocol, PredictMatchesDirectModelCall) {
  const core::MachineParams m = platforms::platform("GTX Titan").machine();
  const core::Workload w = core::Workload::from_intensity(1e9, 4.0);
  const serve::Reply reply = serve::handle_line(
      R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":4})");
  ASSERT_TRUE(reply.ok) << reply.body;
  EXPECT_TRUE(reply.cacheable);
  ASSERT_NE(reply.endpoint, nullptr);
  EXPECT_EQ(reply.endpoint->name, "predict");
  EXPECT_EQ(reply.endpoint->klass, serve::RequestClass::Light);
  const Json out = Json::parse(reply.body);
  EXPECT_DOUBLE_EQ(out.number_or("time_s", 0), core::time(m, w));
  EXPECT_DOUBLE_EQ(out.number_or("energy_j", 0), core::energy(m, w));
  EXPECT_DOUBLE_EQ(out.number_or("avg_power_w", 0), core::avg_power(m, w));
  EXPECT_EQ(out.string_or("regime", ""),
            core::regime_name(core::regime(m, w)));
}

TEST(ServeProtocol, PredictAcceptsInlineMachineAndModifiers) {
  // An inline machine with a cap divisor must match with_cap_scaled.
  const serve::Reply reply = serve::handle_line(
      R"({"type":"predict","machine":{"tau_flop":1e-12,"eps_flop":1e-10,)"
      R"("tau_mem":1e-11,"eps_mem":1e-9,"pi1":10,"delta_pi":100},)"
      R"("cap_divisor":4,"flops":1e9,"intensity":1})");
  ASSERT_TRUE(reply.ok) << reply.body;
  core::MachineParams m;
  m.tau_flop = 1e-12; m.eps_flop = 1e-10; m.tau_mem = 1e-11;
  m.eps_mem = 1e-9; m.pi1 = 10; m.delta_pi = 100;
  const core::MachineParams capped = core::with_cap_scaled(m, 4.0);
  const core::Workload w = core::Workload::from_intensity(1e9, 1.0);
  const Json out = Json::parse(reply.body);
  EXPECT_DOUBLE_EQ(out.number_or("time_s", 0), core::time(capped, w));
}

TEST(ServeProtocol, PredictDpAndUncapped) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"predict","platform":"Desktop CPU","precision":"dp",)"
      R"("uncapped":true,"intensity":8})");
  ASSERT_TRUE(reply.ok) << reply.body;
  const core::MachineParams m =
      platforms::platform("Desktop CPU")
          .machine(core::Precision::Double)
          .without_cap();
  const core::Workload w = core::Workload::from_intensity(1e9, 8.0);
  EXPECT_DOUBLE_EQ(Json::parse(reply.body).number_or("time_s", 0),
                   core::time(m, w));
}

TEST(ServeProtocol, PredictUnsupportedPrecisionIsStructured) {
  // The NUC GPU has no DP energy point in Table I.
  const serve::Reply reply = serve::handle_line(
      R"({"type":"predict","platform":"NUC GPU","precision":"dp","intensity":1})");
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(Json::parse(reply.body).string_or("error", ""), "unsupported");
}

// ---- predict_batch --------------------------------------------------------

std::string batch_request(std::size_t elements) {
  std::string req =
      R"({"type":"predict_batch","platform":"GTX Titan","elements":[)";
  for (std::size_t i = 0; i < elements; ++i) {
    if (i != 0) req += ',';
    req += R"({"flops":1e9,"intensity":)";
    req += Json::format_number(0.125 * static_cast<double>(i + 1));
    req += '}';
  }
  req += "]}";
  return req;
}

TEST(ServeProtocol, PredictBatchRowsByteIdenticalToSinglePredicts) {
  const serve::Reply batch = serve::handle_line(batch_request(9));
  ASSERT_TRUE(batch.ok) << batch.body;
  EXPECT_TRUE(batch.cacheable);
  ASSERT_NE(batch.endpoint, nullptr);
  EXPECT_EQ(batch.endpoint->name, "predict_batch");
  const Json out = Json::parse(batch.body);
  EXPECT_EQ(out.number_or("count", 0), 9.0);
  const Json* results = out.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->as_array().size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    std::string single_req =
        R"({"type":"predict","platform":"GTX Titan","flops":1e9,"intensity":)";
    single_req += Json::format_number(0.125 * static_cast<double>(i + 1));
    single_req += '}';
    const serve::Reply single = serve::handle_line(single_req);
    ASSERT_TRUE(single.ok) << single.body;
    // The single reply's prediction block starts at "intensity" and runs
    // to the closing brace; the batch row must be THOSE bytes (dump() is
    // canonical, so parse+redump preserves them).
    const std::size_t start = single.body.find("\"intensity\"");
    ASSERT_NE(start, std::string::npos);
    const std::string block =
        "{" + single.body.substr(start, single.body.size() - start - 1) + "}";
    EXPECT_EQ(results->as_array()[i].dump(), block) << "element " << i;
  }
}

TEST(ServeProtocol, PredictBatchValidatesElements) {
  for (const char* line :
       {R"({"type":"predict_batch","platform":"GTX Titan"})",
        R"({"type":"predict_batch","platform":"GTX Titan","elements":3})",
        R"({"type":"predict_batch","platform":"GTX Titan","elements":[]})",
        R"({"type":"predict_batch","platform":"GTX Titan","elements":[7]})"}) {
    const serve::Reply reply = serve::handle_line(line);
    EXPECT_FALSE(reply.ok) << line;
    EXPECT_EQ(Json::parse(reply.body).string_or("error", ""), "bad_request")
        << line;
  }
  // Element errors are indexed so clients can find the bad row.
  const serve::Reply reply = serve::handle_line(
      R"({"type":"predict_batch","platform":"GTX Titan",)"
      R"("elements":[{"intensity":1},{"flops":1e9}]})");
  EXPECT_FALSE(reply.ok);
  const Json parsed = Json::parse(reply.body);
  EXPECT_EQ(parsed.string_or("error", ""), "bad_request");
  EXPECT_TRUE(parsed.string_or("message", "").find("element 1:") !=
              std::string::npos)
      << parsed.string_or("message", "");
}

TEST(ServeProtocol, PredictBatchEnforcesSizeLimit) {
  const serve::Reply reply = serve::handle_line(batch_request(1025));
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(Json::parse(reply.body).string_or("error", ""), "too_large");
}

TEST(ServeProtocol, PredictBatchClassifiesByBatchSize) {
  // <= 64 elements: closed-form cheap, Light lane; above: Heavy. The
  // per-endpoint classifier reads the raw line (no parse).
  EXPECT_EQ(serve::classify_line(batch_request(1)), serve::RequestClass::Light);
  EXPECT_EQ(serve::classify_line(batch_request(64)),
            serve::RequestClass::Light);
  EXPECT_EQ(serve::classify_line(batch_request(256)),
            serve::RequestClass::Heavy);
}

TEST(ServeProtocol, CrossoverMatchesAnalysis) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"crossover","a":"GTX Titan","b":"Arndale CPU",)"
      R"("metric":"performance"})");
  ASSERT_TRUE(reply.ok) << reply.body;
  const Json out = Json::parse(reply.body);
  const double x = core::crossover_intensity(
      platforms::platform("GTX Titan").machine(),
      platforms::platform("Arndale CPU").machine(),
      core::Metric::Performance);
  EXPECT_EQ(out.bool_or("found", false), x > 0.0);
  if (x > 0.0) {
    EXPECT_DOUBLE_EQ(out.number_or("intensity", 0), x);
  }
}

TEST(ServeProtocol, ScenarioThrottleMatchesScenarios) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"scenario","kind":"throttle","platform":"GTX Titan",)"
      R"("intensity":2,"watts":80})");
  ASSERT_TRUE(reply.ok) << reply.body;
  const core::ThrottleRequirement r = core::throttle_requirement(
      platforms::platform("GTX Titan").machine(), 2.0, 80.0);
  const Json out = Json::parse(reply.body);
  EXPECT_DOUBLE_EQ(out.number_or("slowdown", 0), r.slowdown);
  EXPECT_DOUBLE_EQ(out.number_or("flop_rate_fraction", 0),
                   r.flop_rate_fraction);
}

TEST(ServeProtocol, ScenarioAggregateScalesNode) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"scenario","kind":"aggregate","platform":"Arndale GPU",)"
      R"("count":47,"flops":1e9,"intensity":4})");
  ASSERT_TRUE(reply.ok) << reply.body;
  const core::MachineParams node =
      core::aggregate(platforms::platform("Arndale GPU").machine(), 47);
  const core::Workload w = core::Workload::from_intensity(1e9, 4.0);
  const Json out = Json::parse(reply.body);
  EXPECT_DOUBLE_EQ(out.number_or("time_s", 0), core::time(node, w));
  EXPECT_DOUBLE_EQ(out.number_or("node_max_power_w", 0), node.max_power());
}

TEST(ServeProtocol, ScenarioPowerBoundMatchesScenarios) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"scenario","kind":"power_bound","big":"GTX Titan",)"
      R"("small":"Arndale GPU","watts":180,"intensity":4})");
  ASSERT_TRUE(reply.ok) << reply.body;
  const core::PowerBoundComparison c = core::power_bound_comparison(
      platforms::platform("GTX Titan").machine(),
      platforms::platform("Arndale GPU").machine(), 180.0, 4.0);
  const Json out = Json::parse(reply.body);
  EXPECT_EQ(static_cast<int>(out.number_or("small_count", 0)), c.small_count);
  EXPECT_DOUBLE_EQ(out.number_or("speedup", 0), c.speedup);
}

TEST(ServeProtocol, FitRecoversSyntheticMachine) {
  // Generate noiseless observations from a known machine; the fit
  // response must recover its parameters to a few percent.
  const core::MachineParams m = platforms::platform("Arndale GPU").machine();
  Json obs = Json::array();
  for (int p = 0; p < 12; ++p) {
    const double intensity = std::exp2(-4.0 + p);
    const core::Workload w = core::Workload::from_intensity(1e8, intensity);
    Json row = Json::object();
    row.set("flops", w.flops);
    row.set("bytes", w.bytes);
    row.set("seconds", core::time(m, w));
    row.set("joules", core::energy(m, w));
    obs.push_back(std::move(row));
  }
  Json req = Json::object();
  req.set("type", "fit");
  req.set("observations", std::move(obs));
  const serve::Reply reply = serve::handle_line(req.dump());
  ASSERT_TRUE(reply.ok) << reply.body;
  EXPECT_TRUE(reply.cacheable);
  const Json out = Json::parse(reply.body);
  const Json* fitted = out.find("machine");
  ASSERT_NE(fitted, nullptr);
  EXPECT_NEAR(fitted->number_or("tau_flop", 0) / m.tau_flop, 1.0, 0.05);
  EXPECT_NEAR(fitted->number_or("tau_mem", 0) / m.tau_mem, 1.0, 0.05);
  EXPECT_GT(out.number_or("r_squared_perf", 0), 0.99);
}

TEST(ServeProtocol, FitWithTooFewObservationsFails) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"fit","observations":[)"
      R"({"flops":1e9,"bytes":1e9,"seconds":1,"joules":10}]})");
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(Json::parse(reply.body).string_or("error", ""), "fit_failed");
}

TEST(ServeProtocol, PlatformsListsAllTwelve) {
  const serve::Reply reply = serve::handle_line(R"({"type":"platforms"})");
  ASSERT_TRUE(reply.ok) << reply.body;
  const Json out = Json::parse(reply.body);
  const Json* list = out.find("platforms");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(list->as_array().size(), platforms::all_platforms().size());
}

TEST(ServeProtocol, StatsIsFlaggedForServerSubstitution) {
  const serve::Reply reply = serve::handle_line(R"({"type":"stats"})");
  EXPECT_TRUE(reply.ok);
  ASSERT_NE(reply.endpoint, nullptr);
  EXPECT_TRUE(reply.endpoint->server_evaluated);
  EXPECT_TRUE(reply.body.empty());
  EXPECT_FALSE(reply.cacheable);
}

TEST(ServeProtocol, SensitivityMatchesDirectProfile) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"sensitivity","platform":"GTX Titan",)"
      R"("metric":"efficiency","intensity":4})");
  ASSERT_TRUE(reply.ok) << reply.body;
  EXPECT_TRUE(reply.cacheable);
  ASSERT_NE(reply.endpoint, nullptr);
  EXPECT_EQ(reply.endpoint->klass, serve::RequestClass::Light);
  const core::SensitivityProfile prof = core::sensitivity_profile(
      platforms::platform("GTX Titan").machine(),
      core::Metric::EnergyEfficiency, 4.0);
  const Json out = Json::parse(reply.body);
  const Json* el = out.find("elasticities");
  ASSERT_NE(el, nullptr);
  for (const core::Param p : core::kAllParams)
    EXPECT_DOUBLE_EQ(el->number_or(core::to_string(p), 1e99), prof[p])
        << core::to_string(p);
  EXPECT_EQ(out.string_or("dominant", ""), core::to_string(prof.dominant()));
}

TEST(ServeProtocol, ScenarioSweepMatchesThrottleSweep) {
  const serve::Reply reply = serve::handle_line(
      R"({"type":"scenario_sweep","platform":"GTX Titan",)"
      R"("intensities":[0.5,4],"cap_divisors":[1,2]})");
  ASSERT_TRUE(reply.ok) << reply.body;
  ASSERT_NE(reply.endpoint, nullptr);
  EXPECT_EQ(reply.endpoint->klass, serve::RequestClass::Heavy);
  const Json out = Json::parse(reply.body);
  EXPECT_EQ(static_cast<int>(out.number_or("points", 0)), 4);
  const Json* sweep = out.find("sweep");
  ASSERT_NE(sweep, nullptr);
  ASSERT_EQ(sweep->as_array().size(), 4u);
  // Spot-check one grid point against the core sweep.
  const auto points = core::throttle_sweep(
      platforms::platform("GTX Titan").machine(), {0.5, 4.0}, {1.0, 2.0});
  const Json& first = sweep->as_array().front();
  EXPECT_DOUBLE_EQ(first.number_or("intensity", 0), points.front().intensity);
  EXPECT_DOUBLE_EQ(first.number_or("power_w", 0), points.front().power);
  EXPECT_DOUBLE_EQ(first.number_or("performance_flops", 0),
                   points.front().performance);
}

TEST(ServeProtocol, ScenarioSweepRejectsOversizedGrid) {
  serve::ProtocolLimits limits;
  limits.max_sweep_points = 3;
  const serve::Reply reply = serve::handle_line(
      R"({"type":"scenario_sweep","platform":"GTX Titan",)"
      R"("intensities":[1,2],"cap_divisors":[1,2]})",
      limits);
  EXPECT_FALSE(reply.ok);
  EXPECT_EQ(Json::parse(reply.body).string_or("error", ""), "too_large");
}

TEST(ServeProtocol, RegistryAssignsDenseStableIds) {
  // Ids are the cache tag and the metrics slot: they must be dense,
  // unique, and match registration order (core endpoints first).
  const serve::Registry& reg = serve::Registry::instance();
  EXPECT_GE(reg.size(), 8u);
  std::uint8_t expected = 0;
  for (const serve::Endpoint& e : reg) {
    EXPECT_EQ(e.id, expected++);
    EXPECT_EQ(reg.find(e.name), &e);
    EXPECT_EQ(reg.by_id(e.id), &e);
  }
  ASSERT_NE(reg.find("predict"), nullptr);
  EXPECT_EQ(reg.find("predict")->id, 0);
  ASSERT_NE(reg.find("fit"), nullptr);
  EXPECT_EQ(reg.find("fit")->klass, serve::RequestClass::Heavy);
  EXPECT_EQ(reg.find("no_such_endpoint"), nullptr);
  EXPECT_EQ(reg.by_id(255), nullptr);
}

TEST(ServeProtocol, ClassifyLineFindsTypeWithoutParsing) {
  using serve::classify_line;
  using serve::RequestClass;
  EXPECT_EQ(classify_line(R"({"type":"fit","observations":[]})"),
            RequestClass::Heavy);
  EXPECT_EQ(classify_line(R"({"type":"scenario_sweep"})"),
            RequestClass::Heavy);
  EXPECT_EQ(classify_line(R"({"type":"predict","intensity":1})"),
            RequestClass::Light);
  // "type" appearing as a VALUE must not fool the scanner: the needle
  // match requires a colon after the closing quote.
  EXPECT_EQ(classify_line(R"({"metric":"type","type":"fit"})"),
            RequestClass::Heavy);
  // Unknown / absent / malformed types default to Light (the full
  // parser produces the structured error cheaply).
  EXPECT_EQ(classify_line(R"({"type":"warp_drive"})"), RequestClass::Light);
  EXPECT_EQ(classify_line(R"({"intensity":1})"), RequestClass::Light);
  EXPECT_EQ(classify_line("garbage"), RequestClass::Light);
  EXPECT_EQ(classify_line(""), RequestClass::Light);
}

TEST(ServeProtocol, IdenticalRequestsProduceIdenticalBytes) {
  const char* line =
      R"({"type":"predict","platform":"Xeon Phi","intensity":2.5,"id":9})";
  const std::string a = body_of(line);
  const std::string b = body_of(line);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

}  // namespace
