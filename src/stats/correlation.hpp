#pragma once
// Correlation coefficients.
//
// §V-C of the paper reports a correlation of about -0.6 between the
// constant-power fraction pi1/(pi1 + delta_pi) and peak energy efficiency
// across the 12 platforms; these functions reproduce that computation.

#include <span>

namespace archline::stats {

/// Pearson product-moment correlation. Requires two samples of equal
/// length >= 2 with non-zero variance; throws std::invalid_argument else.
[[nodiscard]] double pearson(std::span<const double> x,
                             std::span<const double> y);

}  // namespace archline::stats
