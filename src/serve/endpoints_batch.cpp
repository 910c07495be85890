// The predict_batch endpoint: many workloads against one machine in a
// single request, evaluated through the SoA kernels (core/kernels.hpp)
// instead of N scalar model calls.
//
// Reply contract: each element of "results" is byte-identical to what a
// single "predict" reply's prediction block would contain for the same
// (machine, workload) pair — same fields, same order, same number
// format. That holds because the kernels are bit-identical to the
// scalar model (their contract) and the rows are rendered with
// Json::render_number (format_number's exact bytes). The whole reply is
// serialized into one pre-reserved string and returned as a Json::raw
// node that handle_line moves into the reply body — a 256-element batch
// builds ONE heap string, never copies it, and allocates no per-element
// Json nodes.
//
// The execution class is size-dependent: small batches are closed-form-cheap
// (Light), large ones do real work (Heavy). The per-endpoint `classify`
// hook decides from the RAW line via a brace count — each element is
// one object — without parsing. See classify_batch for the slack.

#include <cstring>
#include <string>
#include <vector>

#include "core/kernels.hpp"
#include "core/machine_params.hpp"
#include "core/roofline.hpp"
#include "serve/endpoint_util.hpp"
#include "serve/registry.hpp"

namespace archline::serve {

namespace {

/// Per-element reply footprint: 7 keys (~120 bytes) plus six numbers at
/// up to 24 bytes each; measured replies run ~230 bytes/element, so 240
/// keeps a full 1024-element render to a single allocation.
constexpr std::size_t kReplyBytesPerElement = 240;

Json do_predict_batch(const EndpointContext& ctx) {
  const Json& req = ctx.req;
  std::string_view name;
  const core::MachineParams m = resolve_machine(ctx, name);

  const Json* elements = req.find("elements");
  if (!elements || !elements->is_array())
    bad("\"elements\" must be an array");
  const Json::Array& rows = elements->as_array();
  if (rows.empty()) bad("\"elements\" must not be empty");
  if (rows.size() > ctx.limits.max_predict_batch)
    throw RequestError{"too_large",
                       "batch too large (max " +
                           std::to_string(ctx.limits.max_predict_batch) +
                           " elements)"};

  core::WorkloadBatch batch;
  batch.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].is_object())
      bad("element " + std::to_string(i) + " must be an object");
    try {
      batch.push_back(resolve_workload(rows[i]));
    } catch (const RequestError& e) {
      throw RequestError{e.code,
                         "element " + std::to_string(i) + ": " + e.message};
    }
  }

  core::PredictionBatch pred;
  core::predict_batch(m, batch, pred);

  // Render the COMPLETE reply into one string and return it as a raw
  // node: handle_line moves the payload straight into the reply body,
  // so a batch reply's only large copy is the render itself. The
  // envelope prefix reuses begin_reply/dump for byte-identity with the
  // tree-built form (insertion order ok, type, id, platform, count);
  // its dump cost is per-request, not per-element.
  std::string body;
  body.reserve(96 + batch.size() * kReplyBytesPerElement);
  {
    Json env = begin_reply(ctx.endpoint, req);
    env.set("platform", Json::view(name));
    env.set("count", rows.size());
    env.dump_to(body);
    body.back() = ',';  // reopen the envelope: '}' -> ','
    body += "\"results\":[";
  }
  // Field names and order mirror add_prediction(); regime names are
  // escape-free identifiers, so no string quoting pass is needed. Each
  // row is assembled in a stack buffer and appended in one shot: the
  // key literals become fixed-size memcpys and body takes one capacity
  // check per row instead of one per fragment. Worst case per row:
  // ~113 literal bytes + 6 numbers at <= 24 bytes + regime name; 320
  // leaves render_number its full 40-byte headroom.
  char row[320];
  const auto lit = [](char* dst, std::string_view s) {
    std::memcpy(dst, s.data(), s.size());
    return dst + s.size();
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    char* q = row;
    if (i != 0) *q++ = ',';
    q = lit(q, "{\"intensity\":");
    q += Json::render_number(q, pred.intensity[i]);
    q = lit(q, ",\"time_s\":");
    q += Json::render_number(q, pred.time_s[i]);
    q = lit(q, ",\"energy_j\":");
    q += Json::render_number(q, pred.energy_j[i]);
    q = lit(q, ",\"avg_power_w\":");
    q += Json::render_number(q, pred.avg_power_w[i]);
    q = lit(q, ",\"performance_flops\":");
    q += Json::render_number(q, pred.performance[i]);
    q = lit(q, ",\"efficiency_flops_per_joule\":");
    q += Json::render_number(q, pred.efficiency[i]);
    q = lit(q, ",\"regime\":\"");
    q = lit(q, core::regime_name(pred.regime[i]));
    q = lit(q, "\"}");
    body.append(row, static_cast<std::size_t>(q - row));
  }
  body += "]}";
  return Json::raw(std::move(body));
}

/// Admission classifier: batches of <= 64 elements answer in
/// closed-form microseconds and run inline as Light; bigger ones go
/// Heavy. Element count is estimated from the raw line's '{' count —
/// every element is one object — without parsing: the request object
/// itself is one brace and an optional inline "machine" object is
/// another, so the Light cutoff is 64 + 2 braces. The estimate has
/// deliberate slack (a 65-element batch without an inline machine still
/// counts 66, '{' bytes inside string values inflate the count): like
/// classify_line itself, the verdict picks where the request runs and
/// can never change reply bytes.
RequestClass classify_batch(std::string_view line) noexcept {
  constexpr std::size_t kLightBraces = 64 + 2;
  std::size_t braces = 0;
  for (const char c : line)
    if (c == '{' && ++braces > kLightBraces) return RequestClass::Heavy;
  return RequestClass::Light;
}

}  // namespace

void register_batch_endpoints(Registry& r) {
  // Registered LAST: the id rides in cache tags and metrics slots, so
  // new endpoints always append.
  r.add({.name = "predict_batch",
         .klass = RequestClass::Heavy,  // fallback when no raw line exists
         .cacheable = true,
         .model_scoped = true,
         .handler = &do_predict_batch,
         .classify = &classify_batch});
}

}  // namespace archline::serve
