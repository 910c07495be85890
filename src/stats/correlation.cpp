#include "stats/correlation.hpp"

#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"

namespace archline::stats {

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size())
    throw std::invalid_argument("pearson: length mismatch");
  if (x.size() < 2) throw std::invalid_argument("pearson: need >= 2 points");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0)
    throw std::invalid_argument("pearson: zero variance");
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace archline::stats
