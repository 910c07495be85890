#include "fit/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace archline::fit {

NelderMeadResult nelder_mead(const ObjectiveFn& f, std::span<const double> x0,
                             const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  if (n == 0) throw std::invalid_argument("nelder_mead: empty start point");

  // Adaptive parameters (Gao & Han): improve high-dimensional behaviour.
  const double dn = static_cast<double>(n);
  const double alpha = 1.0;               // reflection
  const double beta = 1.0 + 2.0 / dn;     // expansion
  const double gamma = 0.75 - 0.5 / dn;   // contraction
  const double delta = 1.0 - 1.0 / dn;    // shrink

  NelderMeadResult result;

  std::vector<std::vector<double>> simplex;
  std::vector<double> fvals;
  simplex.reserve(n + 1);
  fvals.reserve(n + 1);

  const auto eval = [&](std::span<const double> x) {
    ++result.evaluations;
    const double v = f(x);
    return std::isfinite(v) ? v : 1e300;
  };

  simplex.emplace_back(x0.begin(), x0.end());
  fvals.push_back(eval(simplex.back()));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> p(x0.begin(), x0.end());
    const double step = options.initial_step *
                        std::max(1.0, std::abs(p[i]));
    p[i] += step;
    simplex.push_back(std::move(p));
    fvals.push_back(eval(simplex.back()));
  }

  std::vector<std::size_t> order(n + 1);
  // Centroid and trial points live across iterations: an accepted trial
  // point is swapped into the simplex, and the displaced vertex's storage
  // becomes the next trial buffer.
  std::vector<double> centroid(n);
  std::vector<double> reflected(n);
  std::vector<double> trial(n);

  while (result.evaluations < options.max_evaluations) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&fvals](std::size_t a,
                                                   std::size_t b) {
      return fvals[a] < fvals[b];
    });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];

    // Convergence: f-spread and simplex diameter.
    const double f_spread = fvals[worst] - fvals[best];
    double diameter = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      diameter = std::max(diameter, std::abs(simplex[worst][i] -
                                             simplex[best][i]));
    if (f_spread < options.f_tolerance && diameter < options.x_tolerance) {
      result.converged = true;
      break;
    }

    // Centroid of all but the worst vertex.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t v = 0; v <= n; ++v) {
      if (v == worst) continue;
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[v][i];
    }
    for (double& c : centroid) c /= dn;

    const auto blend = [&](double coef, std::vector<double>& p) {
      for (std::size_t i = 0; i < n; ++i)
        p[i] = centroid[i] + coef * (centroid[i] - simplex[worst][i]);
    };
    const auto accept = [&](std::vector<double>& p, double fp) {
      simplex[worst].swap(p);
      fvals[worst] = fp;
    };

    blend(alpha, reflected);
    const double f_reflected = eval(reflected);

    if (f_reflected < fvals[best]) {
      blend(alpha * beta, trial);
      const double f_expanded = eval(trial);
      if (f_expanded < f_reflected)
        accept(trial, f_expanded);
      else
        accept(reflected, f_reflected);
    } else if (f_reflected < fvals[second_worst]) {
      accept(reflected, f_reflected);
    } else {
      // Contraction: outside if the reflected point improved the worst.
      const bool outside = f_reflected < fvals[worst];
      blend(outside ? alpha * gamma : -gamma, trial);
      const double f_contracted = eval(trial);
      const double reference = outside ? f_reflected : fvals[worst];
      if (f_contracted < reference) {
        accept(trial, f_contracted);
      } else {
        // Shrink toward the best vertex.
        for (std::size_t v = 0; v <= n; ++v) {
          if (v == best) continue;
          for (std::size_t i = 0; i < n; ++i)
            simplex[v][i] = simplex[best][i] +
                            delta * (simplex[v][i] - simplex[best][i]);
          fvals[v] = eval(simplex[v]);
        }
      }
    }
  }

  const auto best_it = std::min_element(fvals.begin(), fvals.end());
  const auto best_idx =
      static_cast<std::size_t>(std::distance(fvals.begin(), best_it));
  result.x = simplex[best_idx];
  result.fx = fvals[best_idx];
  return result;
}

}  // namespace archline::fit
