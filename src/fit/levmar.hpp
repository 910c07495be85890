#pragma once
// Levenberg-Marquardt nonlinear least squares with a numeric Jacobian.
//
// Polishes the Nelder-Mead seed in model_fit. Marquardt damping scales the
// diagonal of J^T J; the Jacobian comes from central differences, which is
// adequate because the roofline residuals are piecewise smooth and the seed
// lands inside the right regime cell.

#include <functional>
#include <span>
#include <vector>

namespace archline::fit {

/// Residual vector r(x), written into `r` (the callee sizes it); the
/// optimizer minimizes ||r(x)||^2 and reuses its buffers across every
/// evaluation.
using ResidualFn =
    std::function<void(std::span<const double> x, std::vector<double>& r)>;

struct LevmarOptions {
  int max_iterations = 200;
  double gradient_tolerance = 1e-12;  ///< stop on small ||J^T r||_inf
  double step_tolerance = 1e-14;      ///< stop on small relative step
  double initial_lambda = 1e-3;
  double lambda_up = 10.0;
  double lambda_down = 0.25;
  double fd_step = 1e-6;  ///< relative central-difference step
};

struct LevmarResult {
  std::vector<double> x;
  double rss = 0.0;       ///< ||r||^2 at the solution
  int iterations = 0;
  bool converged = false;
};

/// Minimizes ||r(x)||^2 from `x0`. Throws std::invalid_argument on an
/// empty start point or empty residual vector.
[[nodiscard]] LevmarResult levenberg_marquardt(const ResidualFn& residuals,
                                               std::span<const double> x0,
                                               const LevmarOptions& options =
                                                   {});

}  // namespace archline::fit
