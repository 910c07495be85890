#include "sim/request_pools.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/roofline.hpp"
#include "platforms/platform_db.hpp"
#include "serve/json.hpp"
#include "stats/rng.hpp"

namespace archline::sim {

std::vector<std::string> make_predict_pool(int keys) {
  const auto names = platforms::platform_names();
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    serve::Json req = serve::Json::object();
    req.set("type", "predict");
    req.set("platform", names[static_cast<std::size_t>(i) % names.size()]);
    req.set("flops", 1e9);
    req.set("intensity", std::exp2(-4.0 + 13.0 * i / std::max(1, keys - 1)));
    pool.push_back(req.dump());
  }
  return pool;
}

std::vector<std::string> make_batch_pool(int keys,
                                         std::initializer_list<int> sizes) {
  const auto names = platforms::platform_names();
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    const int batch = sizes.begin()[static_cast<std::size_t>(i) % sizes.size()];
    serve::Json elements = serve::Json::array();
    for (int e = 0; e < batch; ++e) {
      serve::Json row = serve::Json::object();
      row.set("flops", 1e9);
      row.set("intensity",
              std::exp2(-4.0 + 13.0 * (i + e) / std::max(1, keys + batch - 2)));
      elements.push_back(std::move(row));
    }
    serve::Json req = serve::Json::object();
    req.set("type", "predict_batch");
    req.set("platform", names[static_cast<std::size_t>(i) % names.size()]);
    req.set("elements", std::move(elements));
    pool.push_back(req.dump());
  }
  return pool;
}

std::vector<std::string> make_observe_pool(int keys, std::uint64_t seed) {
  const auto names = platforms::platform_names();
  stats::Rng rng(seed, /*stream=*/11);
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    const auto& spec =
        platforms::platform(names[static_cast<std::size_t>(i) % names.size()]);
    const core::MachineParams m = spec.machine();
    serve::Json obs = serve::Json::array();
    for (int p = 0; p < 8; ++p) {
      const double intensity = std::exp2(-3.0 + p + (i % 2) * 0.5);
      const core::Workload w = core::Workload::from_intensity(1e9, intensity);
      serve::Json row = serve::Json::object();
      row.set("flops", w.flops);
      row.set("bytes", w.bytes);
      row.set("seconds", core::time(m, w) * rng.lognormal(0.0, 0.01));
      row.set("joules", core::energy(m, w) * rng.lognormal(0.0, 0.01));
      obs.push_back(std::move(row));
    }
    serve::Json req = serve::Json::object();
    req.set("type", "observe");
    req.set("platform", spec.name);
    req.set("observations", std::move(obs));
    pool.push_back(req.dump());
  }
  return pool;
}

namespace {

/// One `{"type":type,"platform":name}` line per platform.
std::vector<std::string> per_platform_pool(const char* type) {
  std::vector<std::string> pool;
  for (const auto& name : platforms::platform_names()) {
    serve::Json req = serve::Json::object();
    req.set("type", type);
    req.set("platform", name);
    pool.push_back(req.dump());
  }
  return pool;
}

}  // namespace

std::vector<std::string> make_params_pool() {
  return per_platform_pool("params");
}

std::vector<std::string> make_refit_pool() {
  return per_platform_pool("refit");
}

std::vector<std::string> make_policy_pool() {
  static const char* kObjectives[] = {"min_energy", "min_time", "min_edp"};
  const auto names = platforms::platform_names();
  std::vector<std::string> pool;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& spec = platforms::platform(names[i]);
    const core::MachineParams m = spec.machine();
    for (int k = 0; k < 3; ++k) {
      const core::Workload w = core::Workload::from_intensity(
          4e9, std::exp2(2.0 + 2.0 * k));
      serve::Json req = serve::Json::object();
      req.set("type", "policy_advise");
      req.set("platform", spec.name);
      req.set("objective", kObjectives[(i + static_cast<std::size_t>(k)) % 3]);
      req.set("flops", w.flops);
      req.set("bytes", w.bytes);
      req.set("period_s", 2.0 * core::time(m, w));
      pool.push_back(req.dump());
    }
  }
  return pool;
}

std::vector<std::string> make_analysis_pool() {
  static const char* kMetrics[] = {"efficiency", "performance", "power"};
  const auto names = platforms::platform_names();
  std::vector<std::string> pool;
  pool.reserve(3 * names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const char* metric = kMetrics[i % 3];
    serve::Json crossover = serve::Json::object();
    crossover.set("type", "crossover");
    crossover.set("a", names[i]);
    crossover.set("b", names[(i + 1) % names.size()]);
    crossover.set("metric", metric);
    pool.push_back(crossover.dump());
    serve::Json sensitivity = serve::Json::object();
    sensitivity.set("type", "sensitivity");
    sensitivity.set("platform", names[i]);
    sensitivity.set("metric", metric);
    sensitivity.set("intensity", std::exp2(static_cast<double>(i % 6) - 1.0));
    pool.push_back(sensitivity.dump());
    serve::Json intensities = serve::Json::array();
    for (const double x : {1.0, 4.0, 16.0}) intensities.push_back(x);
    serve::Json divisors = serve::Json::array();
    for (const double d : {1.0, 2.0}) divisors.push_back(d);
    serve::Json sweep = serve::Json::object();
    sweep.set("type", "scenario_sweep");
    sweep.set("platform", names[i]);
    sweep.set("intensities", std::move(intensities));
    sweep.set("cap_divisors", std::move(divisors));
    pool.push_back(sweep.dump());
  }
  return pool;
}

std::vector<std::string> make_trace_pool() {
  static constexpr char kGop[] = "IBBPBBPBBPBB";
  static const char* kObjectives[] = {"min_energy", "min_time", "min_edp"};
  const auto names = platforms::platform_names();
  std::vector<std::string> trace;
  trace.reserve(names.size() * (sizeof kGop));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto& spec = platforms::platform(names[i]);
    const core::MachineParams m = spec.machine();
    // Per-frame workloads: I = full refresh, P = forward delta,
    // B = cheap bidirectional fill. Totals drive the GOP-level advise.
    double gop_flops = 0.0;
    double gop_bytes = 0.0;
    std::vector<std::string> frames;
    for (const char* f = kGop; *f; ++f) {
      const double flops = *f == 'I' ? 8e9 : *f == 'P' ? 3e9 : 1e9;
      const double intensity = *f == 'I' ? 4.0 : *f == 'P' ? 8.0 : 16.0;
      gop_flops += flops;
      gop_bytes += flops / intensity;
      serve::Json req = serve::Json::object();
      req.set("type", "predict");
      req.set("platform", spec.name);
      req.set("flops", flops);
      req.set("intensity", intensity);
      frames.push_back(req.dump());
    }
    const core::Workload gop{gop_flops, gop_bytes};
    serve::Json advise = serve::Json::object();
    advise.set("type", "policy_advise");
    advise.set("platform", spec.name);
    advise.set("objective", kObjectives[i % 3]);
    advise.set("flops", gop_flops);
    advise.set("bytes", gop_bytes);
    advise.set("period_s", 2.0 * core::time(m, gop));
    trace.push_back(advise.dump());
    for (auto& frame : frames) trace.push_back(std::move(frame));
  }
  return trace;
}

std::vector<std::string> make_fit_pool(int keys, std::uint64_t seed) {
  const auto names = platforms::platform_names();
  stats::Rng rng(seed, /*stream=*/7);
  std::vector<std::string> pool;
  pool.reserve(static_cast<std::size_t>(keys));
  for (int i = 0; i < keys; ++i) {
    const auto& spec =
        platforms::platform(names[static_cast<std::size_t>(i) % names.size()]);
    const core::MachineParams m = spec.machine();
    serve::Json obs = serve::Json::array();
    for (int p = 0; p < 12; ++p) {
      const double intensity = std::exp2(-4.0 + p);
      const core::Workload w = core::Workload::from_intensity(1e9, intensity);
      serve::Json row = serve::Json::object();
      row.set("flops", w.flops);
      row.set("bytes", w.bytes);
      const double jitter = 1.0 + 1e-6 * rng.uniform();
      row.set("seconds", core::time(m, w) * jitter);
      row.set("joules", core::energy(m, w) * jitter);
      obs.push_back(std::move(row));
    }
    serve::Json req = serve::Json::object();
    req.set("type", "fit");
    req.set("idle_watts", spec.idle_power);
    req.set("observations", std::move(obs));
    pool.push_back(req.dump());
  }
  return pool;
}

std::vector<std::string> make_bad_json_pool(std::size_t max_request_bytes) {
  std::vector<std::string> pool;
  pool.emplace_back("{");
  pool.emplace_back("not json at all");
  pool.emplace_back(R"({"type":"no_such_endpoint"})");
  pool.emplace_back(R"({"type":"predict"})");  // missing platform/workload
  pool.emplace_back(R"({"type":"predict","platform":"Atari 2600","flops":1})");
  pool.emplace_back(R"([1,2,3])");
  // One line past the protocol's hard size limit: the dispatcher must
  // answer "too_large" without parsing.
  pool.push_back(std::string(max_request_bytes + 1, 'x'));
  return pool;
}

std::string with_unique_id(const std::string& line, long id) {
  std::string out = "{\"id\":";
  out += std::to_string(id);
  out += ',';
  out.append(line, 1, line.size() - 1);
  return out;
}

bool reply_ok(std::string_view body) noexcept {
  return body.rfind("{\"ok\":true", 0) == 0;
}

std::string_view reply_error_code(std::string_view body) noexcept {
  static constexpr std::string_view kKey = "\"error\":\"";
  const std::size_t at = body.find(kKey);
  if (at == std::string_view::npos) return "unknown";
  const std::size_t begin = at + kKey.size();
  const std::size_t end = body.find('"', begin);
  if (end == std::string_view::npos) return "unknown";
  return body.substr(begin, end - begin);
}

}  // namespace archline::sim
