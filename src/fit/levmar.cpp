#include "fit/levmar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fit/linalg.hpp"

namespace archline::fit {

namespace {

/// Central-difference Jacobian of r at x into `j` (m x n); `xp` holds
/// the perturbed point and `rp` and `rm` the evaluations, reused across
/// columns.
void central_differences(const ResidualFn& r, std::span<const double> x,
                         double rel_step, std::vector<double>& xp,
                         std::vector<double>& rp, std::vector<double>& rm,
                         Mat& j) {
  const std::size_t m = j.rows();
  const std::size_t n = x.size();
  xp.assign(x.begin(), x.end());
  for (std::size_t c = 0; c < n; ++c) {
    const double h = rel_step * std::max(1.0, std::abs(x[c]));
    const double saved = xp[c];
    xp[c] = saved + h;
    r(xp, rp);
    xp[c] = saved - h;
    r(xp, rm);
    xp[c] = saved;
    if (rp.size() != m || rm.size() != m)
      throw std::runtime_error("levmar: residual size changed");
    for (std::size_t i = 0; i < m; ++i)
      j(i, c) = (rp[i] - rm[i]) / (2.0 * h);
  }
}

}  // namespace

LevmarResult levenberg_marquardt(const ResidualFn& residuals,
                                 std::span<const double> x0,
                                 const LevmarOptions& options) {
  if (x0.empty()) throw std::invalid_argument("levmar: empty start point");
  std::vector<double> x(x0.begin(), x0.end());
  std::vector<double> r;
  residuals(x, r);
  if (r.empty()) throw std::invalid_argument("levmar: no residuals");
  // Evaluation, normal-equation and step buffers, reused by every
  // iteration.
  std::vector<double> r_new;
  std::vector<double> r_minus;
  std::vector<double> x_probe;
  const std::size_t m = r.size();
  const std::size_t n = x.size();
  std::vector<double> jtr(n);
  std::vector<double> neg(n);
  std::vector<double> step(n);
  std::vector<double> x_new(n);
  Mat j(m, n);
  Mat jtj(n, n);
  Mat damped(n, n);
  Mat factor(n, n);
  double rss = norm2(r);
  double lambda = options.initial_lambda;

  LevmarResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    central_differences(residuals, x, options.fd_step, x_probe, r_new,
                        r_minus, j);
    normal_equations(j, r, jtj, jtr);

    // Gradient convergence: ||J^T r||_inf.
    double grad_inf = 0.0;
    for (const double g : jtr) grad_inf = std::max(grad_inf, std::abs(g));
    if (grad_inf < options.gradient_tolerance) {
      result.converged = true;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) neg[i] = -jtr[i];

    // Try damped steps, raising lambda until one decreases the RSS. A
    // step that leaves x unchanged cannot, and a larger lambda only
    // shortens it, so the search for descent ends there: at a kink of a
    // piecewise objective that saves the rest of the 30 attempts.
    bool stepped = false;
    for (int attempt = 0; attempt < 30; ++attempt) {
      damped = jtj;
      for (std::size_t i = 0; i < n; ++i)
        damped(i, i) += lambda * std::max(jtj(i, i), 1e-12);
      // Solve (J^T J + lambda diag) step = -J^T r.
      if (!try_cholesky_solve(damped, neg, factor, step)) {
        lambda *= options.lambda_up;
        continue;
      }

      double step_rel = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        x_new[i] = x[i] + step[i];
        step_rel = std::max(step_rel, std::abs(step[i]) /
                                          std::max(1.0, std::abs(x[i])));
      }
      if (x_new == x) break;
      residuals(x_new, r_new);
      const double rss_new = norm2(r_new);
      if (std::isfinite(rss_new) && rss_new < rss) {
        x.swap(x_new);
        r.swap(r_new);
        rss = rss_new;
        lambda = std::max(lambda * options.lambda_down, 1e-14);
        stepped = true;
        if (step_rel < options.step_tolerance) result.converged = true;
        break;
      }
      lambda *= options.lambda_up;
    }
    if (!stepped || result.converged) {
      if (!stepped) result.converged = true;  // no descent direction left
      break;
    }
  }

  result.x = std::move(x);
  result.rss = rss;
  return result;
}

}  // namespace archline::fit
