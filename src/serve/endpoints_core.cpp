// The original protocol surface as registry endpoints: predict,
// crossover, scenario, fit, platforms, stats. Handlers produce replies
// byte-identical to the pre-registry dispatcher (pinned by
// tests/test_serve_golden.cpp); only the plumbing moved here.
//
// Classes: everything closed-form is Light; "fit" runs the capped
// DRAM/SP fit (an exact solve plus a Levenberg-Marquardt profile) over
// inline observations (§V) and is the archetypal Heavy request.

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.hpp"
#include "core/machine_params.hpp"
#include "core/roofline.hpp"
#include "core/scenarios.hpp"
#include "fit/model_fit.hpp"
#include "fit/online/snapshot.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "serve/endpoint_util.hpp"
#include "serve/registry.hpp"

namespace archline::serve {

namespace {

Json do_predict(const EndpointContext& ctx) {
  const Json& req = ctx.req;
  std::string_view name;
  const core::MachineParams m = resolve_machine(ctx, name);
  const core::Workload w = resolve_workload(req);
  Json out = begin_reply(ctx.endpoint, req);
  out.set("platform", Json::view(name));
  out.set("flops", w.flops);
  out.set("bytes", w.bytes);
  add_prediction(out, m, w);
  return out;
}

Json do_crossover(const EndpointContext& ctx) {
  const Json& req = ctx.req;
  const std::string_view name_a = require_string(req, "a");
  const std::string_view name_b = require_string(req, "b");
  const core::Precision prec = parse_precision(req);
  // platform_machine raises unknown_platform / unsupported itself and
  // overlays published online estimates (SP only).
  const core::MachineParams a = platform_machine(ctx, name_a, prec);
  const core::MachineParams b = platform_machine(ctx, name_b, prec);
  const core::Metric metric = parse_metric(req);
  const double lo = req.number_or("lo", 1.0 / 64.0);
  const double hi = req.number_or("hi", 512.0);
  if (!(lo > 0.0) || !(hi > lo)) bad("need 0 < lo < hi");
  const double x = core::crossover_intensity(a, b, metric, lo, hi);
  Json out = begin_reply(ctx.endpoint, req);
  out.set("a", Json::view(name_a));
  out.set("b", Json::view(name_b));
  out.set("metric", Json::view(req.string_view_or("metric", "performance")));
  out.set("found", x > 0.0);
  if (x > 0.0) {
    out.set("intensity", x);
    out.set("value_a", core::metric_value(a, metric, x));
    out.set("value_b", core::metric_value(b, metric, x));
  }
  return out;
}

Json do_scenario(const EndpointContext& ctx) {
  const Json& req = ctx.req;
  const std::string_view kind = require_string(req, "kind");
  Json out = begin_reply(ctx.endpoint, req);
  out.set("kind", Json::view(kind));
  if (kind == "throttle") {
    std::string_view name;
    const core::MachineParams m = resolve_machine(ctx, name);
    const double intensity = require_number(req, "intensity");
    const double cap_watts = require_number(req, "watts");
    if (!(intensity > 0.0)) bad("\"intensity\" must be positive");
    if (!(cap_watts > 0.0)) bad("\"watts\" must be positive");
    const core::ThrottleRequirement r =
        core::throttle_requirement(m, intensity, cap_watts);
    out.set("platform", Json::view(name));
    out.set("intensity", r.intensity);
    out.set("cap_watts", r.cap_watts);
    out.set("slowdown", r.slowdown);
    out.set("flop_rate_fraction", r.flop_rate_fraction);
    out.set("mem_rate_fraction", r.mem_rate_fraction);
    out.set("regime", core::regime_name(r.regime));
    return out;
  }
  if (kind == "aggregate") {
    std::string_view name;
    const core::MachineParams block = resolve_machine(ctx, name);
    const double count = require_number(req, "count");
    if (count < 1.0 || count != std::floor(count) || count > 1e6)
      bad("\"count\" must be an integer in [1, 1e6]");
    const core::MachineParams node =
        core::aggregate(block, static_cast<int>(count));
    const core::Workload w = resolve_workload(req);
    out.set("platform", Json::view(name));
    out.set("count", count);
    out.set("node_max_power_w", node.max_power());
    add_prediction(out, node, w);
    return out;
  }
  if (kind == "power_bound") {
    const std::string_view big_name = require_string(req, "big");
    const std::string_view small_name = require_string(req, "small");
    const core::MachineParams big =
        platform_machine(ctx, big_name, core::Precision::Single);
    const core::MachineParams small =
        platform_machine(ctx, small_name, core::Precision::Single);
    const double bound = require_number(req, "watts");
    const double intensity = require_number(req, "intensity");
    if (!(bound > 0.0)) bad("\"watts\" must be positive");
    if (!(intensity > 0.0)) bad("\"intensity\" must be positive");
    core::PowerBoundComparison c;
    try {
      c = core::power_bound_comparison(big, small, bound, intensity);
    } catch (const std::exception& e) {
      bad(e.what());
    }
    out.set("big", Json::view(big_name));
    out.set("small", Json::view(small_name));
    out.set("bound_watts", c.bound_watts);
    out.set("intensity", intensity);
    out.set("big_cap_divisor", c.big_cap_divisor);
    out.set("big_performance_flops", c.big_performance);
    out.set("big_slowdown", c.big_slowdown);
    out.set("small_count", c.small_count);
    out.set("small_performance_flops", c.small_performance);
    out.set("speedup", c.speedup);
    return out;
  }
  bad("unknown scenario kind \"" + std::string(kind) +
      "\" (expected \"throttle\", \"aggregate\", or \"power_bound\")");
}

Json do_fit(const EndpointContext& ctx) {
  const Json& req = ctx.req;
  const Json* obs_json = req.find("observations");
  if (!obs_json || !obs_json->is_array())
    bad("\"observations\" must be an array");
  const Json::Array& rows = obs_json->as_array();
  if (rows.size() > ctx.limits.max_fit_observations)
    bad("too many observations (max " +
        std::to_string(ctx.limits.max_fit_observations) + ")");
  // "seed_online": true additionally feeds the tuples into the named
  // platform's online window (the streaming `observe` path), so a bulk
  // calibration upload primes the live model in one request. Validated
  // up front: the request must name a platform and the server must run
  // an online store.
  const bool seed_online = req.bool_or("seed_online", false);
  std::string_view seed_platform;
  if (seed_online) {
    if (!ctx.online)
      throw RequestError{"unsupported",
                         "online fitting is not enabled on this server"};
    seed_platform = require_string(req, "platform");
    (void)lookup_platform(seed_platform);  // raises unknown_platform on a miss
  }
  std::vector<microbench::Observation> obs;
  obs.reserve(rows.size());
  std::vector<fit::online::Sample> samples;
  if (seed_online) samples.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const fit::online::Sample s = parse_observation_tuple(rows[i], i);
    if (seed_online) samples.push_back(s);
    microbench::Observation o;
    o.kernel.label = "serve obs " + std::to_string(i);
    o.kernel.flops = s.flops;
    o.kernel.bytes = s.bytes;
    o.seconds = s.seconds;
    o.joules = s.joules;
    o.watts = s.joules / s.seconds;
    obs.push_back(std::move(o));
  }
  fit::FitOptions opt;
  opt.kind = req.bool_or("uncapped", false) ? fit::ModelKind::Uncapped
                                            : fit::ModelKind::Capped;
  opt.idle_watts_hint = req.number_or("idle_watts", 0.0);
  opt.max_watts_hint = req.number_or("max_watts", 0.0);
  fit::FitResult result;
  try {
    result = fit::fit_observations(obs, opt);
  } catch (const std::exception& e) {
    throw RequestError{"fit_failed", e.what()};
  }
  Json out = begin_reply(ctx.endpoint, req);
  Json machine = Json::object();
  machine.set("tau_flop", result.machine.tau_flop);
  machine.set("eps_flop", result.machine.eps_flop);
  machine.set("tau_mem", result.machine.tau_mem);
  machine.set("eps_mem", result.machine.eps_mem);
  machine.set("pi1", result.machine.pi1);
  // kUncapped serializes as null (format_number maps non-finite to null).
  machine.set("delta_pi", result.machine.delta_pi);
  out.set("machine", std::move(machine));
  out.set("observations", result.observations);
  out.set("rss", result.rss);
  out.set("r_squared_perf", result.r_squared_perf);
  out.set("converged", result.converged);
  // Seeding happens only after a successful fit: a rejected batch never
  // contaminates the online window. The reply records what was seeded
  // so clients can confirm the side effect took place.
  if (seed_online) {
    ctx.online->observe(seed_platform, samples);
    out.set("seeded_platform", Json::view(seed_platform));
    out.set("seeded", static_cast<double>(samples.size()));
  }
  return out;
}

/// Cache exemption for "fit": a seeding request mutates the online
/// store, so its reply must never be served from (or stored into) the
/// response cache — a cached replay would drop the side effect.
bool fit_cache_exempt(const Json& req) noexcept {
  return req.bool_or("seed_online", false);
}

Json do_platforms(const EndpointContext& ctx) {
  Json out = begin_reply(ctx.endpoint, ctx.req);
  Json list = Json::array();
  for (const platforms::PlatformSpec& spec : platforms::all_platforms()) {
    Json row = Json::object();
    row.set("name", spec.name);
    row.set("class", platforms::to_string(spec.device_class));
    row.set("peak_sp_flops", spec.peak_sp_flops);
    row.set("peak_bandwidth", spec.peak_bandwidth);
    row.set("pi1_w", spec.pi1);
    row.set("delta_pi_w", spec.delta_pi);
    row.set("idle_w", spec.idle_power);
    row.set("has_dp", spec.has_double());
    Json ops = Json::array();
    for (const core::OperatingPoint& p : spec.operating_points.points) {
      Json op = Json::object();
      op.set("label", p.label);
      op.set("freq_scale", p.freq_scale);
      op.set("energy_scale", p.energy_scale);
      op.set("pi1_w", p.pi1_watts < 0.0 ? spec.pi1 : p.pi1_watts);
      op.set("idle_w", p.idle_watts);
      ops.push_back(std::move(op));
    }
    row.set("operating_points", std::move(ops));
    list.push_back(std::move(row));
  }
  out.set("platforms", std::move(list));
  return out;
}

Json do_stats(const EndpointContext&) {
  // The protocol layer has no metrics; the descriptor's server_evaluated
  // flag tells serve::Server to substitute the live snapshot. Returning
  // an empty object keeps the handler contract uniform (never null).
  return Json::object();
}

}  // namespace

void register_core_endpoints(Registry& r) {
  // Id order is frozen: these six keep their pre-registry RequestType
  // ordinals, which ride in cache entry tags and metrics slots.
  // model_scoped: these replies resolve named platforms against the
  // published online estimates, so cached copies expire with the
  // parameter generation. "fit" and "platforms" stay generation-free —
  // one is a pure function of inline observations, the other lists the
  // static Table I specs.
  r.add({.name = "predict",
         .klass = RequestClass::Light,
         .cacheable = true,
         .model_scoped = true,
         .handler = &do_predict});
  r.add({.name = "crossover",
         .klass = RequestClass::Light,
         .cacheable = true,
         .model_scoped = true,
         .handler = &do_crossover});
  r.add({.name = "scenario",
         .klass = RequestClass::Light,
         .cacheable = true,
         .model_scoped = true,
         .handler = &do_scenario});
  r.add({.name = "fit",
         .klass = RequestClass::Heavy,
         .cacheable = true,
         .handler = &do_fit,
         .cache_exempt = &fit_cache_exempt});
  r.add({.name = "platforms",
         .klass = RequestClass::Light,
         .cacheable = true,
         .handler = &do_platforms});
  r.add({.name = "stats",
         .klass = RequestClass::Light,
         .cacheable = false,
         .server_evaluated = true,
         .handler = &do_stats});
}

}  // namespace archline::serve
