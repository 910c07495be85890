#pragma once
// The newline-delimited request/response protocol of archline_serverd.
//
// Each request is one JSON object on one line with a "type" member;
// each response is one JSON object on one line. Responses are pure
// functions of the request bytes (deterministic model evaluation,
// deterministic serialization), which is what makes them cacheable and
// lets clients verify byte-identical replay. See docs/SERVER.md for the
// wire format with examples.
//
// This layer is stateless: it parses, validates, and dispatches through
// the endpoint registry (serve/registry.hpp) — the set of request types
// lives entirely in the endpoint translation units, never here. Queueing,
// caching, and metrics live in serve::Server.

#include <cstddef>
#include <string>
#include <string_view>

#include "serve/json.hpp"
#include "serve/protocol_limits.hpp"
#include "serve/registry.hpp"

namespace archline::serve {

/// A rendered response plus the routing facts Server needs.
struct Reply {
  std::string body;  ///< one-line JSON response (no trailing newline)
  /// The registry descriptor the request dispatched to; nullptr when it
  /// never reached a handler (parse error, unknown type, oversized).
  const Endpoint* endpoint = nullptr;
  bool ok = false;
  /// True when the reply is a deterministic pure function of the request
  /// and worth memoizing (handler successes on cacheable endpoints).
  bool cacheable = false;
};

/// Handles one request line end to end: size check, JSON parse, registry
/// dispatch, evaluation, rendering. Never throws and never crashes on
/// malformed input — every failure renders as
/// {"ok":false,"error":<code>,"message":...}.
///
/// A server_evaluated endpoint ("stats") is NOT rendered here (the
/// protocol layer has no metrics); it returns a Reply with that
/// endpoint, ok = true, empty body, and the caller substitutes the
/// live snapshot.
///
/// `online` is the caller's online-fit store (serve::Server passes its
/// own); it reaches handlers through EndpointContext. Null is valid —
/// the online endpoints then answer "unsupported" and platform
/// resolution uses the static Table I constants only.
[[nodiscard]] Reply handle_line(std::string_view line,
                                const ProtocolLimits& limits = {},
                                fit::online::OnlineStore* online = nullptr);

/// Same, rendering into a caller-owned Reply whose body capacity is
/// reused across calls — the hot-path form (Server workers keep one
/// Reply per thread). All fields of `reply` are reset; the request is
/// parsed in situ (no copies of `line`'s string payloads), so `line`
/// must stay alive for the duration of the call — which it trivially
/// does. Never throws.
void handle_line(std::string_view line, const ProtocolLimits& limits,
                 Reply& reply, fit::online::OnlineStore* online = nullptr);

/// Renders a structured error reply. `code` is a stable machine-readable
/// token ("bad_request", "unknown_platform", "overloaded", ...);
/// `id` (may be null) is the request's "id" member, echoed back.
[[nodiscard]] std::string error_body(std::string_view code,
                                     std::string_view message,
                                     const Json* id = nullptr);

/// The canned reply Server sends when the Heavy queue is full. Built
/// once; contains code "overloaded".
[[nodiscard]] const std::string& overloaded_body();

/// The canned reply Server sends when a request's deadline expired
/// while it waited in the queue. Built once; contains code
/// "deadline_exceeded".
[[nodiscard]] const std::string& deadline_exceeded_body();

}  // namespace archline::serve
