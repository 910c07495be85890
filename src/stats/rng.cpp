#include "stats/rng.hpp"

#include <cmath>
#include <numbers>

namespace archline::stats {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept : state_(0), inc_(0) {
  std::uint64_t sm = seed;
  const std::uint64_t init_state = splitmix64(sm);
  const std::uint64_t init_stream = splitmix64(sm);
  *this = Rng(init_state, init_stream);
}

Rng::Rng(std::uint64_t seed, std::uint64_t stream) noexcept
    : state_(0), inc_((stream << 1u) | 1u) {
  (void)operator()();
  state_ += seed;
  (void)operator()();
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  if (n <= 1) return 0;
  // Lemire-style rejection on 64-bit draws keeps the result unbiased.
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t hi = static_cast<std::uint64_t>(operator()()) << 32;
    const std::uint64_t draw = hi | operator()();
    if (draw >= threshold) return draw % n;
  }
}

double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 in (0, 1] to avoid log(0).
  double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

double Rng::normal(double mean, double sd) noexcept {
  return mean + sd * normal();
}

double Rng::lognormal(double mu, double sigma) noexcept {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double rate) noexcept {
  return -std::log(1.0 - uniform()) / rate;
}

}  // namespace archline::stats
