#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace archline::stats {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double mu = mean(xs);
  double acc = 0.0;
  for (const double x : xs) {
    const double d = x - mu;
    acc += d * d;
  }
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept {
  return std::sqrt(variance(xs));
}

double quantile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
  if (!(p >= 0.0 && p <= 1.0))
    throw std::invalid_argument("quantile: p outside [0, 1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double h = (static_cast<double>(sorted.size()) - 1.0) * p;
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const auto hi = static_cast<std::size_t>(std::ceil(h));
  const double frac = h - std::floor(h);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

FiveNumberSummary summarize(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("summarize: empty sample");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const auto q = [&sorted](double p) {
    const double h = (static_cast<double>(sorted.size()) - 1.0) * p;
    const auto lo = static_cast<std::size_t>(std::floor(h));
    const auto hi = static_cast<std::size_t>(std::ceil(h));
    const double frac = h - std::floor(h);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  };
  FiveNumberSummary s;
  s.min = sorted.front();
  s.q25 = q(0.25);
  s.median = q(0.5);
  s.q75 = q(0.75);
  s.max = sorted.back();
  s.mean = mean(sorted);
  s.count = sorted.size();
  return s;
}

}  // namespace archline::stats
