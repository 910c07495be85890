#pragma once
// Energy/average-power estimation from sampled captures — the measurement
// arithmetic of the paper's §IV-h:
//
//   "Assuming uniform samples, we compute the average power as the average
//    of the instantaneous power over all samples. For systems that draw
//    from multiple power sources ... we sum the average powers to get
//    total power. Total energy is then the average power times the
//    execution time."

#include "powermon/sampler.hpp"

namespace archline::powermon {

/// A finished measurement of one kernel run.
struct Measurement {
  double seconds = 0.0;    ///< measured execution time
  double joules = 0.0;     ///< estimated total energy
  double avg_watts = 0.0;  ///< estimated average power

  /// Energy/time consistency: joules == avg_watts * seconds by
  /// construction for the paper's estimator.
  [[nodiscard]] bool consistent(double tol = 1e-9) const noexcept;
};

/// The paper's estimator: per-channel mean instantaneous power, summed
/// across channels, times the window duration.
[[nodiscard]] Measurement integrate_mean(const SampledCapture& capture);

/// The same estimator over a capture as it is sampled: equals
/// integrate_mean(sample(capture, cfg, rng)) bit for bit, leaves `rng`
/// where sample() leaves it, and throws where sample() throws, but stores
/// no samples. It runs sample()'s loop, so a sample on a flat stretch of
/// the trace costs a few compares and no draw. The microbenchmark suite
/// measures every kernel run with it.
[[nodiscard]] Measurement sample_mean(const Capture& capture,
                                      const SamplerConfig& cfg,
                                      stats::Rng& rng);

/// Reference estimator: trapezoidal integration of the samples (more
/// accurate for non-stationary traces; used in tests to bound the error of
/// the mean estimator).
[[nodiscard]] Measurement integrate_trapezoid(const SampledCapture& capture);

}  // namespace archline::powermon
