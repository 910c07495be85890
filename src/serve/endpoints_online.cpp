// The online-fitting endpoints: the server's live model-learning
// surface (docs/MODEL.md "Online fitting").
//
//   observe — Light, NOT cacheable: ingest one batch of (W, Q, t, E)
//             tuples for a platform. O(1) per tuple (normal-equation
//             update + ring buffer write); never waits on a re-solve.
//             The reply echoes only batch-local facts, so identical
//             requests produce identical bytes even though the store
//             mutates.
//   params  — Light, cacheable + model_scoped: the platform's last
//             PUBLISHED estimates with confidence intervals.
//             Deliberately reads the snapshot, not the live filter:
//             the reply is a pure function of (request, epoch), which
//             is what lets the generation-tagged cache serve it.
//   refit   — Heavy, NOT cacheable: force a synchronous re-solve +
//             publish. The archetypal heavy mutation — it runs the full
//             §V pipeline on the calling worker.
//
// All three require a Server-owned OnlineStore (EndpointContext.online);
// a bare handle_line caller gets "unsupported".

#include <memory>
#include <string>
#include <vector>

#include "core/machine_params.hpp"
#include "fit/online/snapshot.hpp"
#include "serve/endpoint_util.hpp"
#include "serve/registry.hpp"

namespace archline::serve {

namespace {

using fit::online::OnlineStore;
using fit::online::ParamSnapshot;
using fit::online::Sample;

OnlineStore& require_store(const EndpointContext& ctx) {
  if (!ctx.online)
    throw RequestError{"unsupported",
                       "online fitting requires a serve::Server"};
  return *ctx.online;
}

/// Validates the "platform" field against the Table I set; a miss
/// raises unknown_platform with the standard self-correcting message.
std::string_view require_platform(const EndpointContext& ctx) {
  const std::string_view name = require_string(ctx.req, "platform");
  (void)lookup_platform(name);
  return name;
}

void add_machine(Json& out, const core::MachineParams& m) {
  Json machine = Json::object();
  machine.set("tau_flop", m.tau_flop);
  machine.set("eps_flop", m.eps_flop);
  machine.set("tau_mem", m.tau_mem);
  machine.set("eps_mem", m.eps_mem);
  machine.set("pi1", m.pi1);
  // kUncapped serializes as null (format_number maps non-finite to null).
  machine.set("delta_pi", m.delta_pi);
  out.set("machine", std::move(machine));
}

/// One linear-parameter row: point estimate, standard error, and the
/// 95% normal interval around it.
Json estimate_row(double value, double se) {
  Json row = Json::object();
  row.set("value", value);
  row.set("stderr", se);
  row.set("ci95_lo", value - 1.96 * se);
  row.set("ci95_hi", value + 1.96 * se);
  return row;
}

Json do_observe(const EndpointContext& ctx) {
  OnlineStore& store = require_store(ctx);
  // Ingest hot path: resolve the platform name ONCE, to a store handle.
  // The store's key set is exactly the Table I names (it is built from
  // all_platforms()), so a handle miss is the unknown-platform case —
  // lookup_platform then raises the standard self-correcting error.
  const std::string_view platform = require_string(ctx.req, "platform");
  const OnlineStore::PlatformRef ref = store.find_platform(platform);
  if (!ref) (void)lookup_platform(platform);
  const Json* obs_json = ctx.req.find("observations");
  if (!obs_json || !obs_json->is_array())
    bad("\"observations\" must be an array");
  const Json::Array& rows = obs_json->as_array();
  if (rows.empty()) bad("\"observations\" must not be empty");
  if (rows.size() > ctx.limits.max_observe_batch)
    throw RequestError{
        "too_large", "observe batch exceeds " +
                         std::to_string(ctx.limits.max_observe_batch) +
                         " tuples; chunk the stream"};
  std::vector<Sample> batch;
  batch.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    batch.push_back(parse_observation_tuple(rows[i], i));
  store.observe(ref, batch);
  Json out = begin_reply(ctx.endpoint, ctx.req);
  out.set("platform", Json::view(platform));
  // Batch-local facts only: the reply must be a pure function of the
  // request bytes (running totals live in "stats"/"params").
  out.set("accepted", batch.size());
  return out;
}

Json do_params(const EndpointContext& ctx) {
  OnlineStore& store = require_store(ctx);
  const std::string_view platform = require_platform(ctx);
  const std::shared_ptr<const ParamSnapshot> snap = store.published(platform);
  Json out = begin_reply(ctx.endpoint, ctx.req);
  out.set("platform", Json::view(platform));
  if (!snap) {
    // Nothing published yet. No live counters in the reply: it must
    // stay a pure function of (request, generation) for the cache.
    out.set("fitted", false);
    out.set("epoch", 0);
    return out;
  }
  out.set("fitted", true);
  out.set("epoch", snap->epoch);
  out.set("observations", snap->observations);
  add_machine(out, snap->machine);
  Json rls = Json::object();
  rls.set("eps_flop", estimate_row(snap->rls.eps_flop,
                                   snap->rls.se_eps_flop));
  rls.set("eps_mem", estimate_row(snap->rls.eps_mem, snap->rls.se_eps_mem));
  rls.set("pi1", estimate_row(snap->rls.pi1, snap->rls.se_pi1));
  rls.set("identified", snap->rls.identified);
  rls.set("effective_count", snap->rls.effective_count);
  out.set("rls", std::move(rls));
  out.set("resolved", snap->resolved);
  out.set("rss", snap->rss);
  out.set("r_squared_perf", snap->r_squared);
  out.set("converged", snap->converged);
  return out;
}

Json do_refit(const EndpointContext& ctx) {
  OnlineStore& store = require_store(ctx);
  const std::string_view platform = require_platform(ctx);
  std::shared_ptr<const ParamSnapshot> snap;
  try {
    snap = store.resolve(platform);
  } catch (const std::exception& e) {
    throw RequestError{"fit_failed", e.what()};
  }
  if (!snap)
    throw RequestError{
        "fit_failed",
        "need at least " +
            std::to_string(store.options().min_resolve_observations) +
            " observations to re-solve (have " +
            std::to_string(store.observations(platform)) + ")"};
  Json out = begin_reply(ctx.endpoint, ctx.req);
  out.set("platform", Json::view(platform));
  out.set("epoch", snap->epoch);
  out.set("observations", snap->observations);
  out.set("window_observations", snap->window_observations);
  add_machine(out, snap->machine);
  out.set("rss", snap->rss);
  out.set("r_squared_perf", snap->r_squared);
  out.set("converged", snap->converged);
  return out;
}

}  // namespace

void register_online_endpoints(Registry& r) {
  // observe/refit mutate the store: never cacheable (a cached reply
  // would silently drop the ingest/re-solve side effect). params is the
  // cacheable read — scoped to the parameter generation so a publish
  // invalidates it.
  r.add({.name = "observe",
         .klass = RequestClass::Light,
         .cacheable = false,
         .handler = &do_observe});
  r.add({.name = "params",
         .klass = RequestClass::Light,
         .cacheable = true,
         .model_scoped = true,
         .handler = &do_params});
  r.add({.name = "refit",
         .klass = RequestClass::Heavy,
         .cacheable = false,
         .handler = &do_refit});
}

}  // namespace archline::serve
