#pragma once
// Deterministic pseudo-random number generation for archline.
//
// Every stochastic component in the library (simulator noise, bootstrap
// resampling, multi-start optimization) takes an explicit Rng so that
// experiments are exactly reproducible from a seed. The generator is PCG32
// (O'Neill, 2014): 64-bit state, 32-bit output, period 2^64, passes
// BigCrush at this size; small, fast, and implemented here from scratch.

#include <cstdint>
#include <limits>

namespace archline::stats {

/// splitmix64 step; used to expand a user seed into PCG32 state/stream.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// PCG32 (XSH-RR variant) uniform random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// used with <random> distributions, though archline uses only the
/// distributions defined below for cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint32_t;

  /// Seeds state and stream from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  /// Seeds with an explicit stream id; distinct streams are independent.
  Rng(std::uint64_t seed, std::uint64_t stream) noexcept;

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // The three draws below are defined in the header so per-sample loops
  // (the PowerMon sampler draws twice per sample) keep the state in
  // registers.

  /// Next 32 uniform random bits.
  result_type operator()() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted =
        static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept {
    // 53 random bits mapped to [0, 1).
    const std::uint64_t hi = static_cast<std::uint64_t>(operator()()) << 21;
    const std::uint64_t lo = static_cast<std::uint64_t>(operator()()) >> 11;
    return static_cast<double>(hi + lo) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Skips the next `n` outputs of operator()() in O(log n) steps (PCG
  /// jump-ahead, O'Neill's pcg32_advance): the state is left where `n`
  /// calls would leave it. The stream and the cached normal are
  /// untouched.
  void advance(std::uint64_t n) noexcept {
    std::uint64_t acc_mult = 1;
    std::uint64_t acc_plus = 0;
    std::uint64_t cur_mult = 6364136223846793005ULL;  // operator()'s
    std::uint64_t cur_plus = inc_;
    for (; n > 0; n >>= 1u) {
      if (n & 1u) {
        acc_mult *= cur_mult;
        acc_plus = acc_plus * cur_mult + cur_plus;
      }
      cur_plus = (cur_mult + 1) * cur_plus;
      cur_mult *= cur_mult;
    }
    state_ = acc_mult * state_ + acc_plus;
  }

  /// Uniform integer in [0, n); n must be > 0. Unbiased (rejection method).
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept;

  /// Standard normal deviate (Box-Muller with caching).
  [[nodiscard]] double normal() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double sd) noexcept;

  /// Log-normal deviate: exp(Normal(mu, sigma)).
  [[nodiscard]] double lognormal(double mu, double sigma) noexcept;

  /// Exponential deviate with the given rate (mean 1/rate).
  [[nodiscard]] double exponential(double rate) noexcept;

 private:
  std::uint64_t state_;
  std::uint64_t inc_;  // stream selector; must be odd
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace archline::stats
