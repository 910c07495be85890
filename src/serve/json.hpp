#pragma once
// A tiny from-scratch JSON value type, parser, and serializer for the
// serving wire protocol — no third-party dependencies.
//
// Scope is deliberately the protocol's needs, not full generality:
//   * parse() accepts strict JSON (RFC 8259) with a recursion-depth limit
//     and rejects trailing garbage, so a request line is either one
//     complete document or an error;
//   * parse_in_situ() accepts the same grammar but stores escape-free
//     string payloads as views into the caller's buffer — the
//     low-allocation mode the request hot path uses (see below);
//   * dump() is deterministic: objects serialize in insertion order,
//     numbers print via a fixed shortest-round-trip format, and no
//     whitespace is emitted. Byte-identical requests therefore produce
//     byte-identical responses, which the response cache and the
//     loadgen's determinism check both rely on.
//
// Allocation discipline (the request path parses one document per
// miss, so this is hot):
//   * object/array storage is reserved ahead of the first member;
//   * number parsing never touches the heap;
//   * strings without escape sequences are appended in one bulk copy —
//     or, under parse_in_situ, not copied at all (the node references
//     the input buffer; see as_string_view / Json::view lifetime
//     rules). Object KEYS are always owned std::strings — protocol
//     keys are short enough for SSO, so this costs no heap either.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace archline::serve {

/// Thrown by Json::parse on malformed input; `position` is the byte
/// offset at which parsing failed.
class JsonError : public std::runtime_error {
 public:
  JsonError(const std::string& message, std::size_t position)
      : std::runtime_error(message), position_(position) {}
  [[nodiscard]] std::size_t position() const noexcept { return position_; }

 private:
  std::size_t position_ = 0;
};

class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object, Raw };

  using Array = std::vector<Json>;
  /// Insertion-ordered key/value pairs: preserves author order on dump()
  /// (deterministic bytes) and keeps lookup simple — protocol objects
  /// have < 16 keys, so linear scan beats hashing.
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() noexcept : type_(Type::Null) {}
  Json(std::nullptr_t) noexcept : type_(Type::Null) {}
  Json(bool b) noexcept : type_(Type::Bool), bool_(b) {}
  Json(double v) noexcept : type_(Type::Number), num_(v) {}
  Json(int v) noexcept : type_(Type::Number), num_(v) {}
  Json(std::int64_t v) noexcept : type_(Type::Number),
                                  num_(static_cast<double>(v)) {}
  Json(std::uint64_t v) noexcept : type_(Type::Number),
                                   num_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::String), str_(s) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), str_(s) {}
  Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
  Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

  [[nodiscard]] static Json array() { return Json(Array{}); }
  [[nodiscard]] static Json object() { return Json(Object{}); }

  /// A string node that REFERENCES external bytes without copying them.
  /// The caller must keep the referenced buffer alive and unmoved for
  /// the node's (and any copy's) lifetime. This is the building block
  /// of parse_in_situ; it is also safe for string literals.
  [[nodiscard]] static Json view(std::string_view s) noexcept {
    Json j;
    j.type_ = Type::String;
    j.view_ = s;
    j.owned_ = false;
    return j;
  }

  /// A PRE-SERIALIZED node: dump() appends the payload verbatim, no
  /// quoting or escaping. The caller guarantees the payload is one
  /// complete, valid JSON value — this is the batch endpoints' escape
  /// hatch for rendering large result arrays without building a node
  /// per element. The parser never produces Raw nodes; equality
  /// compares the payload bytes.
  [[nodiscard]] static Json raw(std::string payload) {
    Json j;
    j.type_ = Type::Raw;
    j.str_ = std::move(payload);
    return j;
  }

  /// Steals a Raw node's payload (the node keeps type Raw with an empty
  /// payload). This lets the protocol layer move a handler-rendered
  /// reply body out instead of re-copying it through dump() — the
  /// zero-copy exit for raw() full-reply handlers. Throws JsonError on
  /// any other node type.
  [[nodiscard]] std::string take_raw();

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::Null; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::Bool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::Number;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::String;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::Array; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::Object;
  }
  [[nodiscard]] bool is_raw() const noexcept { return type_ == Type::Raw; }

  // Checked accessors; throw JsonError(position 0) on type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The string payload, owned or viewed. For view nodes the result
  /// aliases the external buffer; for owned nodes it aliases this node.
  [[nodiscard]] std::string_view as_string_view() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  // ---- Object helpers -----------------------------------------------

  /// Pointer to the value at `key`, or nullptr if absent / not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Appends (object) or overwrites (existing key) a member. The value
  /// keeps its insertion position on overwrite. Only valid on objects.
  void set(std::string_view key, Json value);

  /// Appends to an array. Only valid on arrays.
  void push_back(Json value);

  /// Reserves member storage ahead of insertion (arrays and objects
  /// only) — the parser uses this so small documents cost one container
  /// allocation, not a growth series.
  void reserve(std::size_t n);

  // Typed lookups with defaults; throw JsonError if present but the
  // wrong type.
  [[nodiscard]] double number_or(std::string_view key, double fallback) const;
  [[nodiscard]] bool bool_or(std::string_view key, bool fallback) const;
  [[nodiscard]] std::string string_or(std::string_view key,
                                      std::string_view fallback) const;
  /// Allocation-free string_or: the result views either the member's
  /// payload (valid while this document — and, for in-situ parses, the
  /// input buffer — stays alive) or `fallback` itself. The request hot
  /// path uses this for enum-ish fields (precision, level, metric).
  [[nodiscard]] std::string_view string_view_or(std::string_view key,
                                                std::string_view fallback)
      const;

  bool operator==(const Json& other) const noexcept;

  // ---- Wire format --------------------------------------------------

  /// Parses one complete JSON document; trailing non-whitespace is an
  /// error. `max_depth` bounds nesting of arrays/objects. Every string
  /// payload is owned — the result is independent of `text`.
  [[nodiscard]] static Json parse(std::string_view text, int max_depth = 64);

  /// Low-allocation parse: identical grammar and error behavior, but
  /// escape-free string VALUES become views into `text` (keys and
  /// escaped strings stay owned). The result — and any copy of it or of
  /// its members — is only valid while `text`'s bytes stay alive and
  /// unmoved. The protocol layer uses this for request lines, which
  /// outlive the parse by construction.
  [[nodiscard]] static Json parse_in_situ(std::string_view text,
                                          int max_depth = 64);

  /// Compact deterministic serialization (no whitespace, insertion-order
  /// objects, fixed number format).
  [[nodiscard]] std::string dump() const;
  void dump_to(std::string& out) const;

  /// The serializer's number format, exposed for protocol code that
  /// formats values outside a Json tree: shortest decimal string that
  /// round-trips the double ("1e9" style exponents, "Infinity"/"NaN"
  /// never emitted — non-finite values serialize as null).
  [[nodiscard]] static std::string format_number(double v);

  /// Appends format_number(v)'s exact bytes to `out` without the
  /// temporary string — the hot-path form used by dump() itself and by
  /// handlers that serialize numbers directly (predict_batch rows).
  static void append_number(std::string& out, double v);

  /// format_number(v)'s exact bytes written straight into `buf` (which
  /// must hold >= 40 bytes); returns the byte count. The zero-copy form
  /// for handlers that assemble whole rows in a stack buffer before one
  /// bulk append (predict_batch).
  static std::size_t render_number(char* buf, double v);

 private:
  Type type_;
  bool bool_ = false;
  bool owned_ = true;  ///< String payload lives in str_ (else view_)
  double num_ = 0.0;
  std::string str_;
  std::string_view view_;
  Array arr_;
  Object obj_;
};

}  // namespace archline::serve
