#pragma once
// Descriptive statistics: moments, quantiles, and boxplot summaries.
//
// These back the paper's Fig. 4 (error-distribution boxplots: median and
// 25%/75% quantiles) and the summary statistics quoted in §V.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace archline::stats {

/// Arithmetic mean. Returns 0 for an empty input.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Unbiased (n-1) sample variance. Returns 0 for fewer than two values.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// Unbiased sample standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Quantile with linear interpolation (R type-7, the R/NumPy default).
/// p must lie in [0, 1]; input must be non-empty (need not be sorted).
[[nodiscard]] double quantile(std::span<const double> xs, double p);

/// Nearest-rank quantile of an ascending-sorted sample: the element of
/// 1-based rank ceil(q * n), clamped to [1, n]. Always an observed value
/// (no interpolation), so latency percentiles stay exact sample values.
/// Returns T{} for an empty sample.
template <typename T>
[[nodiscard]] T nearest_rank(const std::vector<T>& sorted, double q) noexcept {
  if (sorted.empty()) return T{};
  const double r = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = r < 1.0 ? 0 : static_cast<std::size_t>(r) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Median (type-7 quantile at p = 0.5).
[[nodiscard]] double median(std::span<const double> xs);

/// Five-number summary plus mean, as used for boxplots.
struct FiveNumberSummary {
  double min = 0.0;
  double q25 = 0.0;
  double median = 0.0;
  double q75 = 0.0;
  double max = 0.0;
  double mean = 0.0;
  std::size_t count = 0;

  /// Inter-quartile range q75 - q25.
  [[nodiscard]] double iqr() const noexcept { return q75 - q25; }
};

/// Computes the five-number summary of a non-empty sample.
[[nodiscard]] FiveNumberSummary summarize(std::span<const double> xs);

}  // namespace archline::stats
