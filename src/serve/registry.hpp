#pragma once
// The typed endpoint registry: the single source of truth for what the
// server can do.
//
// Every request type is an Endpoint descriptor — wire name, execution
// class (Light / Heavy), cacheability, handler — registered once at
// startup by its defining translation unit. The protocol dispatcher
// (`handle_line`), the response cache (entry tags), the metrics layer
// (per-endpoint slots), and the admission classifier all key off the
// descriptor's dense id, so adding an endpoint is ONE registration call
// in ONE file: protocol.cpp / server.cpp / metrics.cpp never change.
//
// Registration happens inside Registry::instance()'s lazy initializer,
// which calls each module's registrar function explicitly
// (register_core_endpoints, register_analysis_endpoints). Explicit
// calls — rather than static-initializer self-registration — keep the
// endpoints alive through static-library dead-stripping and make the
// id assignment order deterministic, which matters because ids ride
// in cache entry tags and metrics arrays.
//
// Execution classes (the paper's own split): Light endpoints are
// closed-form model evaluation (eqs. 1-7 — microseconds), Heavy
// endpoints run iterative work (§V parameter fitting, batched sweeps —
// milliseconds). serve::Server runs Light requests on the thread that
// framed them and queues only Heavy misses for its worker pool, so a
// flood of Heavy requests cannot starve Light ones (see server.hpp).

#include <cstdint>
#include <string_view>

#include "serve/json.hpp"
#include "serve/protocol_limits.hpp"

namespace archline::fit::online {
class OnlineStore;
}

namespace archline::serve {

/// Execution class: where a cache miss runs (see serve::Server).
enum class RequestClass : std::uint8_t {
  Light = 0,  ///< closed-form evaluation, microseconds
  Heavy = 1,  ///< iterative / batched work, milliseconds
};

inline constexpr std::size_t kRequestClassCount = 2;

struct Endpoint;

/// Context handed to an endpoint handler: the parsed request, the
/// protocol limits (fit observation caps etc.), the endpoint's own
/// descriptor (so begin_reply can stamp the wire name without a lookup),
/// and — when the caller is a Server — its online-fit store. The store
/// is the one mutable dependency a handler may touch: `observe`/`refit`
/// write it, `params` and the platform-resolution overlay read its
/// published snapshots. Null for store-less callers (bare handle_line);
/// online endpoints then answer "unsupported".
struct EndpointContext {
  const Json& req;
  const ProtocolLimits& limits;
  const Endpoint& endpoint;
  fit::online::OnlineStore* online = nullptr;
};

/// Handler contract: build the success reply as a Json object (the
/// dispatcher serializes it). Failures are reported by throwing
/// RequestError (see endpoint_util.hpp); any other exception renders as
/// {"error":"internal"}.
using EndpointHandler = Json (*)(const EndpointContext&);

/// One registered request type.
struct Endpoint {
  std::string_view name;  ///< wire value of the request's "type" member
  RequestClass klass = RequestClass::Light;
  /// Deterministic pure function of the request bytes — worth memoizing
  /// in the response cache.
  bool cacheable = true;
  /// The handler cannot render this reply from the request alone; the
  /// Server substitutes the body against live state ("stats"). Such
  /// replies are never cached.
  bool server_evaluated = false;
  /// The reply depends on the published online-fit parameters, so a
  /// cached copy is valid only within one parameter generation: the
  /// cache stores the generation observed before evaluation and treats
  /// a mismatch on hit as a miss (see ShardedLruCache / OnlineStore).
  bool model_scoped = false;
  EndpointHandler handler = nullptr;
  /// Optional per-endpoint admission classifier: refines the static
  /// `klass` from the RAW request line (no parse) so size-dependent
  /// endpoints can split classes — predict_batch runs small batches
  /// inline as Light and queues large ones as Heavy. Must be cheap and
  /// allocation-free; like classify_line itself, the verdict affects
  /// where the request runs only, never reply bytes. Null means "use
  /// klass".
  RequestClass (*classify)(std::string_view line) noexcept = nullptr;
  /// Optional per-request cache exemption: a statically cacheable
  /// endpoint can declare that THIS request's reply must not enter (or
  /// be served from) the response cache because evaluating it has a
  /// side effect — "fit" with "seed_online": true feeds its inline
  /// observations into the online store, and a cached replay would
  /// silently drop the seeding. Runs on the parsed request after the
  /// handler succeeds; null means "cacheable as declared".
  bool (*cache_exempt)(const Json& req) noexcept = nullptr;
  /// Dense id, assigned at registration in registration order. Doubles
  /// as the cache entry tag and the metrics slot.
  std::uint8_t id = 0;
};

class Registry {
 public:
  /// The ceiling on registered endpoints. The cache tag is one byte and
  /// metrics slot arrays are sized statically, so the bound is explicit;
  /// registration past it aborts (a programming error, not runtime input).
  static constexpr std::size_t kMaxEndpoints = 16;

  /// The process-wide registry, fully populated (all module registrars
  /// have run). Thread-safe; first caller builds it.
  [[nodiscard]] static const Registry& instance();

  /// Registers one endpoint and assigns its id. Only meaningful inside
  /// a module registrar invoked from instance()'s initializer.
  void add(Endpoint endpoint);

  /// Descriptor for a wire name, or nullptr if unknown.
  [[nodiscard]] const Endpoint* find(std::string_view name) const noexcept;

  /// Descriptor by dense id (cache tags); nullptr when out of range.
  [[nodiscard]] const Endpoint* by_id(std::uint8_t id) const noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  /// Iteration in id order (metrics naming, docs tooling).
  [[nodiscard]] const Endpoint* begin() const noexcept { return endpoints_; }
  [[nodiscard]] const Endpoint* end() const noexcept {
    return endpoints_ + count_;
  }

 private:
  Endpoint endpoints_[kMaxEndpoints];
  std::size_t count_ = 0;
};

/// Module registrars, called (in this order) by Registry::instance().
/// Defined in endpoints_core.cpp / endpoints_analysis.cpp /
/// endpoints_online.cpp / endpoints_batch.cpp / endpoints_policy.cpp —
/// the id order below is part of the wire-compatible surface (cache
/// tags).
void register_core_endpoints(Registry& r);
void register_analysis_endpoints(Registry& r);
void register_online_endpoints(Registry& r);
void register_batch_endpoints(Registry& r);
void register_policy_endpoints(Registry& r);

/// The value of the raw request line's "type" member, found without a
/// JSON parse, or "invalid" when there is none (malformed line, no
/// such member, a non-string value, or one holding an escape). The
/// value need not name an endpoint.
[[nodiscard]] std::string_view request_type(std::string_view line) noexcept;

/// Admission-time classification without a full JSON parse: the class
/// of the endpoint request_type() names. Unknown types, missing types,
/// and malformed lines classify Light — their replies are cheap errors.
/// Misclassification can only affect where the request runs, never
/// reply bytes (the dispatcher re-parses properly).
[[nodiscard]] RequestClass classify_line(std::string_view line) noexcept;

}  // namespace archline::serve
