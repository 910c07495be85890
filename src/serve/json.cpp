#include "serve/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace archline::serve {

namespace {

[[noreturn]] void type_error(const char* want, Json::Type got) {
  static const char* const names[] = {"null",  "bool",   "number", "string",
                                      "array", "object", "raw"};
  throw JsonError(std::string("expected ") + want + ", got " +
                      names[static_cast<int>(got)],
                  0);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::Bool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::Number) type_error("number", type_);
  return num_;
}

std::string_view Json::as_string_view() const {
  if (type_ != Type::String) type_error("string", type_);
  return owned_ ? std::string_view(str_) : view_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::Array) type_error("array", type_);
  return arr_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::Object) type_error("object", type_);
  return obj_;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

void Json::set(std::string_view key, Json value) {
  if (type_ != Type::Object) type_error("object", type_);
  for (auto& [k, v] : obj_)
    if (k == key) {
      v = std::move(value);
      return;
    }
  obj_.emplace_back(std::string(key), std::move(value));
}

void Json::push_back(Json value) {
  if (type_ != Type::Array) type_error("array", type_);
  arr_.push_back(std::move(value));
}

std::string Json::take_raw() {
  if (type_ != Type::Raw) type_error("raw", type_);
  return std::move(str_);
}

void Json::reserve(std::size_t n) {
  if (type_ == Type::Array)
    arr_.reserve(n);
  else if (type_ == Type::Object)
    obj_.reserve(n);
  else
    type_error("array or object", type_);
}

double Json::number_or(std::string_view key, double fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return fallback;
  return v->as_number();
}

bool Json::bool_or(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return fallback;
  return v->as_bool();
}

std::string Json::string_or(std::string_view key,
                            std::string_view fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return std::string(fallback);
  return std::string(v->as_string_view());
}

std::string_view Json::string_view_or(std::string_view key,
                                      std::string_view fallback) const {
  const Json* v = find(key);
  if (!v || v->is_null()) return fallback;
  return v->as_string_view();
}

bool Json::operator==(const Json& other) const noexcept {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::Null: return true;
    case Type::Bool: return bool_ == other.bool_;
    case Type::Number: return num_ == other.num_;
    case Type::String:
      // Payload bytes, not storage mode: an owned string equals a view
      // of the same characters.
      return (owned_ ? std::string_view(str_) : view_) ==
             (other.owned_ ? std::string_view(other.str_) : other.view_);
    case Type::Array: return arr_ == other.arr_;
    case Type::Object: return obj_ == other.obj_;
    case Type::Raw: return str_ == other.str_;
  }
  return false;
}

// ---- Parser ---------------------------------------------------------------

namespace {

/// Expected member counts for reserve(): protocol requests are small
/// flat objects; 8 covers every request shape in one allocation while
/// wasting little on smaller documents.
constexpr std::size_t kReserveHint = 8;

/// Nested objects (batch elements, inline machine specs) run 2-6
/// members. The smaller hint matters beyond the wasted bytes: 4 pairs
/// keep the member vector's allocation under glibc's tcache ceiling,
/// so a 256-element batch does 256 fast-bin mallocs instead of 256
/// slow-path ones.
constexpr std::size_t kNestedReserveHint = 4;

/// Ceiling on the array() comma pre-scan estimate, so a hostile
/// document can't make reserve() grab unbounded memory up front.
constexpr std::size_t kArrayReserveCap = 4096;

class Parser {
 public:
  Parser(std::string_view text, int max_depth, bool in_situ)
      : text_(text), max_depth_(max_depth), in_situ_(in_situ) {}

  Json run() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  int max_depth_;
  bool in_situ_;

  [[noreturn]] void fail(const std::string& msg) const {
    throw JsonError(msg + " at offset " + std::to_string(pos_), pos_);
  }

  [[nodiscard]] bool eof() const noexcept { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const noexcept { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() noexcept {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  void expect(char c) {
    if (eof() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word)
      fail(std::string("invalid literal (expected ") + std::string(word) +
           ")");
    pos_ += word.size();
  }

  Json value() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': literal("true"); return Json(true);
      case 'f': literal("false"); return Json(false);
      case 'n': literal("null"); return Json(nullptr);
      default: return number();
    }
  }

  Json object() {
    if (++depth_ > max_depth_) fail("nesting too deep");
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      --depth_;
      return obj;
    }
    obj.reserve(depth_ == 1 ? kReserveHint : kNestedReserveHint);
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = string();
      skip_ws();
      expect(':');
      obj.set(key, value());
      skip_ws();
      if (eof()) fail("unterminated object");
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    --depth_;
    return obj;
  }

  Json array() {
    if (++depth_ > max_depth_) fail("nesting too deep");
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      --depth_;
      return arr;
    }
    // Shallow arrays can be huge (predict_batch "elements"), and every
    // growth step move-relocates fat Json nodes. Commas in the rest of
    // the document upper-bound the element count (members inside the
    // elements only over-reserve), so one vectorizable byte scan buys a
    // single allocation with no relocations. Deep arrays skip the scan
    // — rescanning per nesting level would turn parsing quadratic.
    std::size_t hint = kReserveHint;
    if (depth_ <= 2) {
      std::size_t commas = 0;
      for (std::size_t i = pos_; i < text_.size(); ++i)
        if (text_[i] == ',') ++commas;
      hint = std::min(commas + 1, kArrayReserveCap);
    }
    arr.reserve(hint);
    while (true) {
      arr.push_back(value());
      skip_ws();
      if (eof()) fail("unterminated array");
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    --depth_;
    return arr;
  }

  /// Fast scan for a string with no escapes and no control characters.
  /// On success, `payload` is the raw bytes between the quotes, pos_ is
  /// past the closing quote, and true is returned. On any complication
  /// (escape, control char, unterminated) pos_ is left on the opening
  /// quote for the slow path to re-parse and diagnose.
  /// Pre: text_[pos_] == '"'.
  bool scan_simple_string(std::string_view& payload) noexcept {
    for (std::size_t i = pos_ + 1; i < text_.size(); ++i) {
      const unsigned char c = static_cast<unsigned char>(text_[i]);
      if (c == '"') {
        payload = text_.substr(pos_ + 1, i - pos_ - 1);
        pos_ = i + 1;
        return true;
      }
      if (c == '\\' || c < 0x20) return false;
    }
    return false;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  unsigned hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9')
        value |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f')
        value |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        value |= static_cast<unsigned>(c - 'A' + 10);
      else
        fail("invalid \\u escape");
    }
    return value;
  }

  /// An owned string (object keys always take this form; protocol keys
  /// fit SSO, so it stays heap-free). Escape-free strings are copied in
  /// one bulk append instead of char-by-char.
  std::string string() {
    std::string_view simple;
    if (scan_simple_string(simple)) return std::string(simple);
    return slow_string();
  }

  /// A string VALUE node: under in-situ parsing an escape-free payload
  /// becomes a view into text_ (zero copies); otherwise it is owned.
  /// Strings with escapes always materialize owned storage — the
  /// decoded bytes don't exist in the input.
  Json string_value() {
    std::string_view simple;
    if (scan_simple_string(simple))
      return in_situ_ ? Json::view(simple) : Json(simple);
    return Json(slow_string());
  }

  /// Escape-decoding path, also the diagnostic path for malformed
  /// strings (the fast scan rejects without consuming input).
  std::string slow_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      const char c = next();
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // Surrogate pair: require the low half.
            if (eof() || next() != '\\' || eof() || next() != 'u')
              fail("unpaired surrogate in \\u escape");
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF)
              fail("invalid low surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("unpaired surrogate in \\u escape");
          }
          append_utf8(out, code);
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !(peek() >= '0' && peek() <= '9')) fail("invalid number");
    // Leading zero may not be followed by more digits.
    if (peek() == '0') {
      ++pos_;
      if (!eof() && peek() >= '0' && peek() <= '9')
        fail("leading zero in number");
    } else {
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !(peek() >= '0' && peek() <= '9'))
        fail("expected digits after decimal point");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !(peek() >= '0' && peek() <= '9'))
        fail("expected digits in exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    // from_chars first: correctly rounded like strtod but ~6x faster
    // (no locale machinery), and it reads straight from the input —
    // no copy at all. It reports extreme magnitudes (overflow to inf,
    // underflow past the smallest subnormal) as result_out_of_range
    // without storing a value, so those rare cases fall through to the
    // strtod path below, which keeps the previous implementation's
    // semantics exactly: underflow parses as 0.0, overflow fails.
    const std::size_t len = pos_ - start;
    {
      double v = 0.0;
      const auto [ptr, ec] =
          std::from_chars(text_.data() + start, text_.data() + pos_, v);
      if (ec == std::errc{} && ptr == text_.data() + pos_) {
        if (!std::isfinite(v)) fail("number out of range");
        return Json(v);
      }
    }
    char buf[64];
    if (len < sizeof buf) {
      std::memcpy(buf, text_.data() + start, len);
      buf[len] = '\0';
      char* end = nullptr;
      const double v = std::strtod(buf, &end);
      if (end != buf + len) fail("invalid number");
      if (!std::isfinite(v)) fail("number out of range");
      return Json(v);
    }
    const std::string token(text_.substr(start, len));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("invalid number");
    if (!std::isfinite(v)) fail("number out of range");
    return Json(v);
  }
};

void dump_string(std::string_view s, std::string& out) {
  out += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
}

}  // namespace

Json Json::parse(std::string_view text, int max_depth) {
  return Parser(text, max_depth, /*in_situ=*/false).run();
}

Json Json::parse_in_situ(std::string_view text, int max_depth) {
  return Parser(text, max_depth, /*in_situ=*/true).run();
}

namespace {

/// Renders format_number's bytes into `buf` (>= 40 bytes), returning
/// the length. The format is definitionally "the first precision in
/// 1..17 whose %.*g round-trips" — the original implementation probed
/// every precision with snprintf+strtod per number, which dominated
/// reply rendering (up to 34 libc calls for a 17-digit double). This
/// version gets the shortest round-trip digit count d in one
/// std::to_chars call and rebuilds glibc's %g presentation from the
/// to_chars digits directly:
///
///   * no round-tripping string has fewer than d digits, so the probe
///     loop can never stop before d; and when the value's round-trip
///     interval is SYMMETRIC, the correctly-rounded d-digit decimal
///     (what %.*g prints) is at least as close to v as to_chars's
///     round-tripping one, hence also round-trips and equals it — so
///     the loop stops exactly at d with exactly these digits.
///   * the interval is asymmetric only at binade boundaries (mantissa
///     bits all zero, i.e. v = ±2^k): there to_chars may round-trip
///     with a digit string the probe loop rejects, so powers of two
///     take a probe path instead — starting at d (a proven lower
///     bound), which still skips almost the whole 1..17 scan.
///   * %g presentation rules: scientific iff exponent < -4 or >= d,
///     exponent sign always printed and zero-padded to two digits,
///     trailing zeros stripped (shortest digits never have any).
///
/// tests/test_serve_protocol.cpp holds the old loop as a reference
/// oracle and asserts byte equality over random doubles; the golden
/// corpus pins the format on every reply shape.
std::size_t render_number_impl(char* buf, double v) {
  if (!std::isfinite(v)) {
    std::memcpy(buf, "null", 4);
    return 4;
  }
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    // Integers up to 2^53 print exactly without an exponent or decimal
    // point ("%.0f"), including the "-0" negative-zero spelling.
    if (v == 0.0 && std::signbit(v)) {
      buf[0] = '-';
      buf[1] = '0';
      return 2;
    }
    const auto r = std::to_chars(buf, buf + 32, static_cast<long long>(v));
    return static_cast<std::size_t>(r.ptr - buf);
  }
  // Shortest round-trip mantissa digits + decimal exponent. to_chars
  // scientific output is "[-]d[.ffff]e±x[x..]": the mantissa is reused
  // by block memcpy below instead of a digit-at-a-time copy — this
  // function sits under every rendered number in every reply.
  char sci[40];
  const auto r =
      std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific);
  const char* p = sci;
  char* out = buf;
  if (*p == '-') {
    *out++ = '-';
    ++p;
  }
  const char* e = static_cast<const char*>(
      std::memchr(p, 'e', static_cast<std::size_t>(r.ptr - p)));
  const int nd = e - p == 1 ? 1 : static_cast<int>(e - p - 1);
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  if ((bits & 0x000FFFFFFFFFFFFFull) == 0) {
    // v is ±2^k: the binade boundary, where the round-trip interval is
    // asymmetric (the ulp below is half the ulp above). Only here can
    // the correctly-rounded nd-digit decimal — what %.*g prints — fail
    // to round-trip even though to_chars's nd-digit string succeeds,
    // so the bytes must come from the probe itself. nd stays a valid
    // lower bound (no shorter string round-trips at all), so the probe
    // starts there, not at 1.
    for (int prec = nd; prec <= 17; ++prec) {
      const int len = std::snprintf(buf, 40, "%.*g", prec, v);
      if (std::strtod(buf, nullptr) == v) return static_cast<std::size_t>(len);
    }
  }
  const char* q = e + 1;
  int exp_sign = 1;
  if (*q == '+') {
    ++q;
  } else if (*q == '-') {
    exp_sign = -1;
    ++q;
  }
  int exp10 = 0;
  while (q != r.ptr) exp10 = exp10 * 10 + (*q++ - '0');
  exp10 *= exp_sign;

  if (exp10 < -4 || exp10 >= nd) {
    // Scientific: d.ddde±XX with at least two exponent digits. The
    // mantissa ("d" or "d.ffff") is already in %g form — copy it whole.
    std::memcpy(out, p, static_cast<std::size_t>(e - p));
    out += e - p;
    *out++ = 'e';
    *out++ = exp10 < 0 ? '-' : '+';
    int x = exp10 < 0 ? -exp10 : exp10;
    char etmp[8];
    int en = 0;
    do {
      etmp[en++] = static_cast<char>('0' + x % 10);
      x /= 10;
    } while (x != 0);
    if (en < 2) *out++ = '0';
    while (en > 0) *out++ = etmp[--en];
  } else if (exp10 >= 0) {
    // Fixed, >= 1: dd[.dd] — exp10 < nd guarantees the digits cover
    // the integer part. Digits live at p[0] then p[2..]: two block
    // copies around the shifted decimal point.
    *out++ = p[0];
    std::memcpy(out, p + 2, static_cast<std::size_t>(exp10));
    out += exp10;
    if (nd > exp10 + 1) {
      *out++ = '.';
      std::memcpy(out, p + 2 + exp10, static_cast<std::size_t>(nd - exp10 - 1));
      out += nd - exp10 - 1;
    }
  } else {
    // Fixed, < 1: 0.[00]dd.
    *out++ = '0';
    *out++ = '.';
    for (int z = 0; z < -exp10 - 1; ++z) *out++ = '0';
    *out++ = p[0];
    if (nd > 1) {
      std::memcpy(out, p + 2, static_cast<std::size_t>(nd - 1));
      out += nd - 1;
    }
  }
  return static_cast<std::size_t>(out - buf);
}

}  // namespace

std::string Json::format_number(double v) {
  char buf[40];
  return std::string(buf, render_number_impl(buf, v));
}

void Json::append_number(std::string& out, double v) {
  char buf[40];
  out.append(buf, render_number_impl(buf, v));
}

std::size_t Json::render_number(char* buf, double v) {
  return render_number_impl(buf, v);
}

void Json::dump_to(std::string& out) const {
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: append_number(out, num_); break;
    case Type::String:
      dump_string(owned_ ? std::string_view(str_) : view_, out);
      break;
    case Type::Raw: out += str_; break;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        arr_[i].dump_to(out);
      }
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        dump_string(obj_[i].first, out);
        out += ':';
        obj_[i].second.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  out.reserve(64);
  dump_to(out);
  return out;
}

}  // namespace archline::serve
