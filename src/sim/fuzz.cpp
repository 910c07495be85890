#include "sim/fuzz.hpp"

#include <array>
#include <cctype>
#include <fstream>
#include <string_view>
#include <utility>

#include "serve/json.hpp"
#include "serve/server.hpp"

namespace archline::sim {

namespace {

/// The protocol's stable machine-readable failure codes (protocol.cpp,
/// endpoint_util.cpp, endpoints_*.cpp). Anything else in an
/// {"ok":false} reply is a contract violation the fuzzer must report.
constexpr std::array<std::string_view, 10> kKnownErrorCodes = {
    "bad_request",   "parse_error", "unknown_platform",
    "unsupported",   "too_large",   "fit_failed",
    "internal",      "overloaded",  "deadline_exceeded",
    "infeasible",
};

[[nodiscard]] bool known_code(std::string_view code) noexcept {
  for (const std::string_view known : kKnownErrorCodes)
    if (code == known) return true;
  return false;
}

/// Bytes the mutators inject: JSON structure characters, the framing
/// byte, NUL, spaces, high bytes, digits — the inputs that stress the
/// parser's state machine rather than uniformly random noise. A char
/// array (not string_view-from-literal) so the embedded NUL counts.
constexpr char kSpiceChars[] =
    "{}[]\",:.\\/-+eE0123456789 \t\n\0\x01\x7f\x80\xc0\xff tru fals nul";
constexpr std::string_view kSpiceBytes(kSpiceChars, sizeof kSpiceChars - 1);

[[nodiscard]] char spice(stats::Rng& rng) {
  return kSpiceBytes[static_cast<std::size_t>(rng.below(kSpiceBytes.size()))];
}

[[nodiscard]] std::size_t pick_offset(const std::string& s, stats::Rng& rng) {
  return s.empty() ? 0 : static_cast<std::size_t>(rng.below(s.size()));
}

// ---- mutation operators ---------------------------------------------------
// Each takes the line by reference plus the corpus (for splicing) and
// the rng. They keep the result roughly line-shaped: embedded '\n' is
// deliberate (the protocol treats the whole string as one line; a NUL
// or newline mid-token must parse-error, not crash).

void op_truncate(std::string& s, const std::vector<std::string>&,
                 stats::Rng& rng) {
  s.resize(pick_offset(s, rng));
}

void op_splice(std::string& s, const std::vector<std::string>& corpus,
               stats::Rng& rng) {
  const std::string& other =
      corpus[static_cast<std::size_t>(rng.below(corpus.size()))];
  s = s.substr(0, pick_offset(s, rng)) +
      other.substr(pick_offset(other, rng));
}

void op_flip_byte(std::string& s, const std::vector<std::string>&,
                  stats::Rng& rng) {
  if (s.empty()) return;
  s[pick_offset(s, rng)] = spice(rng);
}

void op_insert_byte(std::string& s, const std::vector<std::string>&,
                    stats::Rng& rng) {
  s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                           rng.below(s.size() + 1)),
           spice(rng));
}

void op_delete_span(std::string& s, const std::vector<std::string>&,
                    stats::Rng& rng) {
  if (s.empty()) return;
  const std::size_t at = pick_offset(s, rng);
  s.erase(at, 1 + static_cast<std::size_t>(rng.below(8)));
}

/// Swaps structural characters: '{' <-> '[', '}' <-> ']', '"' -> '\''
/// at one random structural position — turns objects into arrays
/// mid-document and unbalances nesting.
void op_flip_structure(std::string& s, const std::vector<std::string>&,
                       stats::Rng& rng) {
  std::size_t structural = 0;
  for (const char c : s)
    if (c == '{' || c == '}' || c == '[' || c == ']' || c == '"')
      ++structural;
  if (structural == 0) return;
  std::size_t target = static_cast<std::size_t>(rng.below(structural));
  for (char& c : s) {
    if (c != '{' && c != '}' && c != '[' && c != ']' && c != '"') continue;
    if (target-- > 0) continue;
    switch (c) {
      case '{': c = '['; break;
      case '}': c = ']'; break;
      case '[': c = '{'; break;
      case ']': c = '}'; break;
      case '"': c = '\''; break;
    }
    return;
  }
}

/// Replaces the digit run at a random position with an extreme number
/// literal — overflow, underflow, huge exponents, -0, leading zeros,
/// which the parser or the validators reject, and finite positive
/// extremes (the largest double, the smallest subnormal), which pass
/// validation and reach ingest and the fits.
void op_extreme_number(std::string& s, const std::vector<std::string>&,
                       stats::Rng& rng) {
  static constexpr std::array<std::string_view, 12> kNumbers = {
      "1e309",  "-1e309", "1e-400", "99999999999999999999999999",
      "-0.0",   "0.0000000000000000000000000001",
      "2e2e2",  "00123",  "1e300",  "1e-300",
      "5e-324", "1.7976931348623157e308",
  };
  const std::size_t start = pick_offset(s, rng);
  std::size_t i = start;
  while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                          s[i] == '.' || s[i] == '-' || s[i] == '+' ||
                          s[i] == 'e' || s[i] == 'E'))
    ++i;
  const std::string_view pick =
      kNumbers[static_cast<std::size_t>(rng.below(kNumbers.size()))];
  s.replace(start, i - start, pick);
}

/// Inflates the string content at a random quote with a long run —
/// oversized fields (platform names, ids) must bounce, not overflow.
void op_inflate_field(std::string& s, const std::vector<std::string>&,
                      stats::Rng& rng) {
  const std::size_t quote = s.find('"', pick_offset(s, rng));
  if (quote == std::string::npos) return;
  s.insert(quote + 1,
           std::string(1 + static_cast<std::size_t>(rng.below(512)), 'a'));
}

/// Prepends deep array nesting — drives the parser toward its
/// max_json_depth limit, which must error, not recurse to death.
void op_deep_nest(std::string& s, const std::vector<std::string>&,
                  stats::Rng& rng) {
  const std::size_t depth = 8 + static_cast<std::size_t>(rng.below(64));
  s = std::string(depth, '[') + s;
}

using MutationOp = void (*)(std::string&, const std::vector<std::string>&,
                            stats::Rng&);

constexpr std::array<MutationOp, 9> kOps = {
    op_truncate,     op_splice,        op_flip_byte,
    op_insert_byte,  op_delete_span,   op_flip_structure,
    op_extreme_number, op_inflate_field, op_deep_nest,
};

}  // namespace

std::string mutate_line(const std::vector<std::string>& corpus,
                        stats::Rng& rng, int max_mutations) {
  std::string line =
      corpus[static_cast<std::size_t>(rng.below(corpus.size()))];
  const int count =
      1 + static_cast<int>(rng.below(
              static_cast<std::uint64_t>(max_mutations < 1 ? 1
                                                           : max_mutations)));
  for (int i = 0; i < count; ++i)
    kOps[static_cast<std::size_t>(rng.below(kOps.size()))](line, corpus, rng);
  return line;
}

bool reply_acceptable(std::string_view reply, std::string* why) {
  const auto fail = [&](std::string message) {
    if (why) *why = std::move(message);
    return false;
  };
  if (reply.empty()) return fail("empty reply");
  if (reply.find('\n') != std::string_view::npos)
    return fail("reply contains a newline (breaks framing)");
  serve::Json parsed;
  try {
    parsed = serve::Json::parse(reply);
  } catch (const serve::JsonError& e) {
    return fail(std::string("reply is not valid JSON: ") + e.what());
  }
  if (!parsed.is_object()) return fail("reply is not a JSON object");
  const serve::Json* ok = parsed.find("ok");
  if (!ok || !ok->is_bool())
    return fail("reply lacks a boolean \"ok\" member");
  if (ok->as_bool()) return true;
  const serve::Json* error = parsed.find("error");
  if (!error || !error->is_string())
    return fail("error reply lacks a string \"error\" member");
  if (!known_code(error->as_string_view()))
    return fail("unknown error code: " +
                std::string(error->as_string_view()));
  return true;
}

FuzzReport run_fuzz(serve::Server& server,
                    const std::vector<std::string>& corpus,
                    const FuzzOptions& options) {
  FuzzReport report;
  if (corpus.empty()) return report;
  std::string reply;
  std::string why;
  for (std::size_t k = options.begin; k < options.begin + options.iterations;
       ++k) {
    // Every random choice of iteration k comes from stream k: findings
    // replay from (seed, k) without re-running the preceding k inputs.
    stats::Rng rng(options.seed, k);
    const std::string input = mutate_line(corpus, rng,
                                          options.max_mutations);
    server.handle_into(input, reply);
    ++report.iterations;
    if (!reply_acceptable(reply, &why)) {
      report.findings.push_back(FuzzFinding{k, input, reply, why});
      if (options.max_findings > 0 &&
          report.findings.size() >= options.max_findings)
        break;
      continue;
    }
    // Parse a second time just for the tally; findings already carry
    // the interesting payloads.
    try {
      const serve::Json parsed = serve::Json::parse(reply);
      const serve::Json* ok = parsed.find("ok");
      if (ok && ok->is_bool() && ok->as_bool())
        ++report.ok_replies;
      else
        ++report.error_replies;
    } catch (const serve::JsonError&) {
    }
  }
  return report;
}

std::vector<std::string> load_corpus(const std::string& path) {
  std::vector<std::string> corpus;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) corpus.push_back(line);
  return corpus;
}

}  // namespace archline::sim
