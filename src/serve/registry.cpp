#include "serve/registry.hpp"

#include <cstdio>
#include <cstdlib>

namespace archline::serve {

void Registry::add(Endpoint endpoint) {
  // Both failure modes are programming errors in a registrar, not
  // runtime input: fail loudly at first use instead of serving a
  // half-registered protocol.
  if (count_ >= kMaxEndpoints) {
    std::fprintf(stderr, "serve::Registry: endpoint limit (%zu) exceeded\n",
                 kMaxEndpoints);
    std::abort();
  }
  if (find(endpoint.name) != nullptr || endpoint.handler == nullptr) {
    std::fprintf(stderr, "serve::Registry: bad registration for \"%.*s\"\n",
                 static_cast<int>(endpoint.name.size()), endpoint.name.data());
    std::abort();
  }
  endpoint.id = static_cast<std::uint8_t>(count_);
  endpoints_[count_++] = endpoint;
}

const Registry& Registry::instance() {
  // Module registrars run exactly once, in a fixed order: ids are part
  // of the cache-tag / metrics-slot contract. Calling them explicitly
  // (instead of relying on static initializers in the endpoint TUs)
  // survives static-library dead-stripping.
  static const Registry registry = [] {
    Registry r;
    register_core_endpoints(r);
    register_analysis_endpoints(r);
    register_online_endpoints(r);
    register_batch_endpoints(r);
    register_policy_endpoints(r);
    return r;
  }();
  return registry;
}

const Endpoint* Registry::find(std::string_view name) const noexcept {
  // Linear scan: the table is tiny (< kMaxEndpoints) and names are
  // short, so this beats hashing — same reasoning as Json::Object.
  for (std::size_t i = 0; i < count_; ++i)
    if (endpoints_[i].name == name) return &endpoints_[i];
  return nullptr;
}

const Endpoint* Registry::by_id(std::uint8_t id) const noexcept {
  return id < count_ ? &endpoints_[id] : nullptr;
}

std::string_view request_type(std::string_view line) noexcept {
  // Find `"type"` followed (after optional whitespace) by `:` and a
  // string value — without parsing the document. JSON string escaping
  // cannot produce the byte sequence `"type"` inside a string value
  // (the interior quotes would be backslash-escaped on the wire), so a
  // match inside a VALUE like {"metric":"type"} is ruled out by
  // requiring the colon; the loop skips such decoys. Worst case a
  // pathological line is misclassified Light — the dispatcher's real
  // parse still produces the correct reply bytes.
  static constexpr std::string_view kNeedle = "\"type\"";
  static constexpr std::string_view kNone = "invalid";
  const auto space = [](char ch) {
    return ch == ' ' || ch == '\t' || ch == '\r' || ch == '\n';
  };
  std::size_t pos = 0;
  while ((pos = line.find(kNeedle, pos)) != std::string_view::npos) {
    std::size_t i = pos + kNeedle.size();
    while (i < line.size() && space(line[i])) ++i;
    if (i >= line.size() || line[i] != ':') {
      pos += kNeedle.size();
      continue;
    }
    ++i;
    while (i < line.size() && space(line[i])) ++i;
    if (i >= line.size() || line[i] != '"') return kNone;
    const std::size_t begin = ++i;
    // Endpoint names never contain escapes; a backslash or a missing
    // closing quote means "not one of ours".
    while (i < line.size() && line[i] != '"' && line[i] != '\\') ++i;
    if (i >= line.size() || line[i] != '"') return kNone;
    return line.substr(begin, i - begin);
  }
  return kNone;
}

RequestClass classify_line(std::string_view line) noexcept {
  const Endpoint* ep = Registry::instance().find(request_type(line));
  if (ep == nullptr) return RequestClass::Light;
  return ep->classify ? ep->classify(line) : ep->klass;
}

}  // namespace archline::serve
