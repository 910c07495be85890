#pragma once
// The one seeded request vocabulary of the benchmark. Every line any
// workload sends is built here from a stats::Rng seeded by --seed, so the
// same seed replays the same bytes and the server only ever sees the
// generated lines.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/machine_params.hpp"
#include "stats/rng.hpp"

namespace perfbench::vocab {

using archline::stats::Rng;

/// Request kinds; the name of each is its wire "type".
enum Kind : std::uint8_t {
  kPredict,
  kPredictBatch,
  kPolicyAdvise,
  kSensitivity,
  kCrossover,
  kParams,
  kPlatforms,
  kObserve,
  kFit,
  kRefit,
  kKindCount
};

[[nodiscard]] const char* kind_name(Kind k) noexcept;

/// Stream seeds: one Rng stream per (purpose, connection), so adding a
/// connection or a phase never shifts another stream's bytes.
[[nodiscard]] Rng stream(std::uint64_t seed, std::uint64_t purpose,
                         std::uint64_t index = 0) noexcept;

struct Line {
  Kind kind = kPredict;
  std::string text;  ///< no trailing newline
};

/// hot-replay: `n` distinct cacheable keys in Zipf rank order (rank 0 is
/// the hottest). Which kind sits at which rank is fixed, so the reply
/// size profile does not depend on the seed; the parameters do.
[[nodiscard]] std::vector<Line> hot_keys(std::uint64_t seed, std::size_t n);

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  [[nodiscard]] std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// cold-open: one light-lane request with a unique "id", so no two
/// bodies are equal and the response cache never hits. Mix: predict 55%,
/// predict_batch 15% (8 or 64 elements), policy_advise 15%, sensitivity
/// 10%, crossover 5%.
Kind cold_line(Rng& rng, std::uint64_t id, std::string& out);

/// One line per endpoint kind, for layers a workload does not use.
[[nodiscard]] std::vector<Line> reference_lines(std::uint64_t seed);

/// The Table I platform names, in database order.
[[nodiscard]] std::span<const std::string> platform_names();

}  // namespace perfbench::vocab
