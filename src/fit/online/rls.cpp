#include "fit/online/rls.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <span>
#include <vector>

#include "fit/linalg.hpp"

namespace archline::fit::online {

namespace {

/// Internal unit scale: regressors are (Gflop, GB, s) so theta lands in
/// O(0.01..100) for the paper's platforms and G stays well conditioned.
constexpr double kScale = 1e-9;

/// Whether the smallest eigenvalue of G scaled to unit diagonal, D G D
/// with D = diag(1/sqrt(G_ii)) as nnls3 scales its columns, is at least
/// kIdentifiable of its largest. The eigenvalues of a symmetric 3x3
/// matrix with unit diagonal and off-diagonals a, b, c are
/// 1 + 2p cos(phi + 2 pi k/3), p = sqrt((a^2 + b^2 + c^2)/3),
/// phi = acos(abc / p^3)/3.
bool identifiable(const Mat& g) {
  double d[3];
  for (std::size_t i = 0; i < 3; ++i) {
    if (!(g(i, i) > 0.0)) return false;
    d[i] = 1.0 / std::sqrt(g(i, i));
  }
  const double a = g(0, 1) * d[0] * d[1];
  const double b = g(0, 2) * d[0] * d[2];
  const double c = g(1, 2) * d[1] * d[2];
  const double p1 = a * a + b * b + c * c;
  if (p1 == 0.0) return true;
  const double p = std::sqrt(p1 / 3.0);
  const double phi =
      std::acos(std::clamp(a * b * c / (p * p * p), -1.0, 1.0)) / 3.0;
  const double largest = 1.0 + 2.0 * p * std::cos(phi);
  const double smallest =
      1.0 + 2.0 * p * std::cos(phi + 2.0 * std::numbers::pi / 3.0);
  return smallest >= RlsFilter::kIdentifiable * largest;
}

}  // namespace

RlsFilter::RlsFilter(double forgetting) noexcept
    : lambda_(forgetting > 0.0 && forgetting <= 1.0 ? forgetting : 1.0) {}

bool RlsFilter::observe(const Sample& s) noexcept {
  const double x[kDim] = {s.flops * kScale, s.bytes * kScale, s.seconds};
  const double y = s.joules;

  double g[kDim][kDim];
  double h[kDim];
  const double yy = lambda_ * yy_ + y * y;
  bool finite = std::isfinite(yy);
  for (int i = 0; i < kDim; ++i) {
    for (int j = i; j < kDim; ++j) {
      g[i][j] = lambda_ * g_[i][j] + x[i] * x[j];
      finite = finite && std::isfinite(g[i][j]);
    }
    h[i] = lambda_ * h_[i] + x[i] * y;
    finite = finite && std::isfinite(h[i]);
  }
  if (!finite) return false;

  for (int i = 0; i < kDim; ++i) {
    for (int j = i; j < kDim; ++j) g_[i][j] = g_[j][i] = g[i][j];
    h_[i] = h[i];
  }
  yy_ = yy;
  weight_ = lambda_ * weight_ + 1.0;
  ++count_;
  return true;
}

RlsEstimate RlsFilter::estimate() const {
  RlsEstimate e;
  e.count = count_;
  e.effective_count = weight_;
  Mat g(kDim, kDim);
  for (int i = 0; i < kDim; ++i)
    for (int j = 0; j < kDim; ++j) g(i, j) = g_[i][j];
  e.identified = identifiable(g);
  // ||X theta - y||^2 = yy - 2 theta^T h + theta^T G theta.
  const auto rss = [&](const std::array<double, kDim>& theta) {
    double f = yy_;
    for (int i = 0; i < kDim; ++i) {
      double gt = 0.0;
      for (int j = 0; j < kDim; ++j) gt += g_[i][j] * theta[j];
      f += theta[i] * (gt - 2.0 * h_[i]);
    }
    return f;
  };
  std::array<double, kDim> theta{};
  const double residual = nnls3(g, h_, rss, theta);
  e.eps_flop = theta[0] * kScale;
  e.eps_mem = theta[1] * kScale;
  e.pi1 = theta[2];

  // Standard errors over the free set, from the same unit-diagonal
  // matrix nnls3 factored for it: (S^-1)_ii = (D S D)^-1_ii d_i^2. The
  // residual degrees of freedom use the effective sample size so the
  // variance stays honest under heavy forgetting.
  std::vector<std::size_t> free;
  for (std::size_t i = 0; i < kDim; ++i)
    if (theta[i] > 0.0) free.push_back(i);
  const double dof = weight_ - static_cast<double>(free.size());
  if (free.empty() || !(dof > 0.0)) return e;
  const double sigma2 = std::max(residual, 0.0) / dof;
  double d[kDim];
  for (std::size_t c = 0; c < kDim; ++c) d[c] = 1.0 / std::sqrt(g(c, c));
  Mat s(free.size(), free.size());
  for (std::size_t i = 0; i < free.size(); ++i)
    for (std::size_t j = 0; j < free.size(); ++j)
      s(i, j) = g(free[i], free[j]) * d[free[i]] * d[free[j]];
  double se[kDim] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < free.size(); ++i) {
    std::vector<double> unit(free.size(), 0.0);
    unit[i] = 1.0;
    const double v = cholesky_solve(s, unit)[i] * d[free[i]] * d[free[i]];
    se[free[i]] = std::sqrt(sigma2 * v);
  }
  e.se_eps_flop = se[0] * kScale;
  e.se_eps_mem = se[1] * kScale;
  e.se_pi1 = se[2];
  return e;
}

}  // namespace archline::fit::online
