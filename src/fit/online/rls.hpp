#pragma once
// Least squares with exponential forgetting over the LINEAR part of the
// energy-roofline model.
//
// For a streaming observation (W flops, Q bytes, t seconds, E joules),
// the energy equation (paper eq. 4) is exactly linear in the per-event
// energy constants:
//
//   E = W*eps_flop + Q*eps_mem + t*pi1
//
// i.e. y = x^T theta with x = (W, Q, t) and theta = (eps_flop, eps_mem,
// pi1). The filter keeps the forgotten normal equations of that
// regression, G = sum lambda^k x x^T, h = sum lambda^k x y and
// sum lambda^k y^2, in O(1) arithmetic per observation with no division
// — no history is kept, and G stays positive semidefinite under any
// stream. The forgetting factor lambda < 1 exponentially down-weights
// old tuples so the estimate tracks parameter drift (DVFS changes,
// thermal aging). estimate() solves them with the offline fit's
// non-negative least squares (fit::nnls3), so the learner and the
// uncapped fit share one solver.
//
// A stream that never varies the regressors independently (one
// repeated workload shape, or t proportional to W) cannot separate the
// constants: G is then singular or nearly so, and estimate() says so in
// `identified` instead of publishing whatever the solve returns.
//
// The TIME side (eq. 1) is t = max(W*tau_flop, Q*tau_mem), a kink, and
// the capped-model nonlinearity (delta_pi, eq. 5-7) cannot be estimated
// incrementally at all — both are the background re-solver's job
// (resolver.hpp), which runs the §V capped fit over a bounded window.
//
// Numerical scaling: regressors are normalized to Gflop / GB internally
// (W, Q ~ 1e9 while t ~ 1e-1 would otherwise spread G's spectrum over
// ~20 decades); estimates are converted back on read.

#include <cstdint>

namespace archline::fit::online {

/// One streaming measurement tuple: what `observe` carries on the wire.
/// (The serve layer validates bytes/seconds/joules > 0, flops >= 0
/// before ingest.)
struct Sample {
  double flops = 0.0;
  double bytes = 0.0;
  double seconds = 0.0;
  double joules = 0.0;
};

/// Point estimates plus uncertainty, read out of the filter at
/// publication time. Standard errors are sqrt(sigma^2 (S^-1)_ii), with
/// S the rows and columns of G whose constants the NNLS left free
/// (a constant held at 0 has se 0) and sigma^2 the forgetting-weighted
/// residual sum of squares over (effective_count - free constants);
/// ci95 half-width is 1.96 * se.
struct RlsEstimate {
  double eps_flop = 0.0;  ///< J/flop
  double eps_mem = 0.0;   ///< J/byte
  double pi1 = 0.0;       ///< W (constant power)
  double se_eps_flop = 0.0;
  double se_eps_mem = 0.0;
  double se_pi1 = 0.0;
  /// False when the smallest eigenvalue of G, scaled to unit diagonal,
  /// is below kIdentifiable of its largest (or a regressor never
  /// varied from 0): the stream cannot separate the three constants and
  /// the estimates above must not be published.
  bool identified = false;
  std::uint64_t count = 0;       ///< tuples ingested
  double effective_count = 0.0;  ///< sum of forgetting weights
};

class RlsFilter {
 public:
  static constexpr int kDim = 3;  ///< (eps_flop, eps_mem, pi1)
  /// Identifiability threshold on the unit-diagonal G's eigenvalue
  /// ratio. An intensity sweep across the balance point reads ~1e-4 (t
  /// is piecewise proportional to W or Q); one repeated workload shape
  /// reads ~1e-14.
  static constexpr double kIdentifiable = 1e-6;

  /// `forgetting` is lambda in (0, 1]: 1 = ordinary least squares
  /// (infinite memory), smaller = faster tracking / noisier estimates.
  /// The effective window is ~1/(1-lambda) observations.
  explicit RlsFilter(double forgetting = 0.998) noexcept;

  /// Ingests one tuple: decays and adds to G, h and the sum of squares.
  /// O(kDim^2) arithmetic, no allocation. A tuple that would make any
  /// sum non-finite (e.g. 1e300 flops) is dropped and not counted.
  /// Returns whether the tuple was kept.
  bool observe(const Sample& s) noexcept;

  /// Solves the forgotten normal equations (non-negative least squares)
  /// and gates the result on G's conditioning.
  [[nodiscard]] RlsEstimate estimate() const;

 private:
  double lambda_;
  double g_[kDim][kDim] = {};  ///< forgotten sum of x x^T (scaled units)
  double h_[kDim] = {};        ///< forgotten sum of x y
  double yy_ = 0.0;            ///< forgotten sum of y^2
  double weight_ = 0.0;        ///< sum of forgetting weights (ESS)
  std::uint64_t count_ = 0;
};

}  // namespace archline::fit::online
