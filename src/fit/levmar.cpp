#include "fit/levmar.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fit/linalg.hpp"

namespace archline::fit {

namespace {

/// Central-difference Jacobian of r at x; `rp` and `rm` are the
/// evaluation buffers, reused across columns.
Mat jacobian(const ResidualFn& r, std::span<const double> x,
             std::size_t m, double rel_step, std::vector<double>& rp,
             std::vector<double>& rm) {
  const std::size_t n = x.size();
  Mat j(m, n);
  std::vector<double> xp(x.begin(), x.end());
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
  return j;
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
  // Evaluation buffers, reused by every Jacobian and trial step.
  std::vector<double> r_new;
  std::vector<double> r_minus;
  const std::size_t m = r.size();
  double rss = norm2(r);
  double lambda = options.initial_lambda;

  LevmarResult result;
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++result.iterations;
    const Mat j =
        jacobian(residuals, x, m, options.fd_step, r_new, r_minus);
    const Mat jtj = gram(j);
    std::vector<double> jtr = matvec_transposed(j, r);

    // Gradient convergence: ||J^T r||_inf.
    double grad_inf = 0.0;
    for (const double g : jtr) grad_inf = std::max(grad_inf, std::abs(g));
    if (grad_inf < options.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Try damped steps, raising lambda until one decreases the RSS.
    bool stepped = false;
    for (int attempt = 0; attempt < 30; ++attempt) {
      Mat damped = jtj;
      for (std::size_t i = 0; i < damped.rows(); ++i)
        damped(i, i) += lambda * std::max(jtj(i, i), 1e-12);
      std::vector<double> step;
      try {
        // Solve (J^T J + lambda diag) step = -J^T r.
        std::vector<double> neg(jtr.size());
        for (std::size_t i = 0; i < jtr.size(); ++i) neg[i] = -jtr[i];
        step = cholesky_solve(damped, neg);
      } catch (const std::runtime_error&) {
        lambda *= options.lambda_up;
        continue;
      }

      std::vector<double> x_new(x.size());
      double step_rel = 0.0;
      for (std::size_t i = 0; i < x.size(); ++i) {
        x_new[i] = x[i] + step[i];
        step_rel = std::max(step_rel, std::abs(step[i]) /
                                          std::max(1.0, std::abs(x[i])));
      }
      residuals(x_new, r_new);
      const double rss_new = norm2(r_new);
      if (std::isfinite(rss_new) && rss_new < rss) {
        x = std::move(x_new);
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
