#pragma once
// Residual functions connecting the roofline model to measured
// observations, plus the parameter packing used by the optimizers.
//
// Parameters are optimized in log space: every model constant is a
// positive physical quantity, and log-parameterization both enforces that
// and equalizes scales across parameters that differ by 12 orders of
// magnitude (tau_flop in ps vs pi1 in watts).
//
// CONTRACT — bit identity. The residuals and their sum are the inner loop
// of every fit (Nelder-Mead evaluates the objective thousands of times
// per fit_machine), and the golden-reply corpus pins the fitted constants
// of the `fit` endpoint to the last bit. The rules that keep them fixed:
//
//   * one core::time() per observation; the energy is then the same
//     expression core::energy() evaluates, W eps_flop + Q eps_mem +
//     pi1 * t, in the same order, so it equals energy() exactly;
//   * sum_squared_residuals adds r_t^2, r_e^2, r_p^2 per observation, in
//     observation order, into one serial accumulator — the same sum as
//     squaring time_energy_residuals() element by element;
//   * no reassociation, hence no SIMD path: the ordered sum is the
//     critical path, and splitting it into lanes changes the rounding
//     and with it the golden `fit` bytes.

#include <span>
#include <vector>

#include "core/machine_params.hpp"
#include "microbench/suite.hpp"

namespace archline::fit {

/// Which model the residuals evaluate (paper Fig. 4's comparison).
enum class ModelKind {
  Capped,    ///< this paper: eq. (3) with the delta_pi term
  Uncapped,  ///< prior model: T = max(W tau_flop, Q tau_mem)
};

/// Number of packed parameters (6 capped, 5 uncapped).
[[nodiscard]] std::size_t parameter_count(ModelKind kind) noexcept;

/// Packs machine parameters into log-space optimizer coordinates
/// [log tau_flop, log eps_flop, log tau_mem, log eps_mem, log pi1,
///  (log delta_pi)].
[[nodiscard]] std::vector<double> pack(const core::MachineParams& m,
                                       ModelKind kind);

/// Inverse of pack(). For Uncapped, delta_pi becomes core::kUncapped.
[[nodiscard]] core::MachineParams unpack(std::span<const double> x,
                                         ModelKind kind);

/// Relative residuals of predicted vs measured time, energy, and average
/// power, three per observation: (T/t - 1, E/e - 1, P/p - 1).
///
/// Power is E/T and thus analytically redundant, but including it weights
/// the fit toward reproducing the power curve's *shape* — which is what
/// separates a flat cap plateau from a rising memory-bound segment on
/// platforms where pi_mem ~ delta_pi (e.g. the APU GPU) and pins delta_pi
/// near the observed peak power when the cap barely binds (Xeon Phi).
[[nodiscard]] std::vector<double> time_energy_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs);

/// Appends time_energy_residuals(m, obs) to `out`, for callers that add
/// residuals of their own and size `out` once for all of them.
void append_time_energy_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs, std::vector<double>& out);

/// Sum of squared time_energy_residuals — the scalar objective for
/// Nelder-Mead seeding. Allocates nothing.
[[nodiscard]] double sum_squared_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs);

/// Per-observation relative prediction errors (model - measured)/measured
/// for the three quantities of interest — the raw material of Fig. 4.
struct PredictionErrors {
  std::vector<double> time;
  std::vector<double> energy;
  std::vector<double> power;
  std::vector<double> performance;  ///< flop/s errors (= -time/(1+time))
};

[[nodiscard]] PredictionErrors prediction_errors(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs);

/// Heuristic starting point for the DRAM fit, derived from the sweep's
/// extremes (bandwidth-bound and compute-bound ends).
[[nodiscard]] core::MachineParams initial_guess(
    std::span<const microbench::Observation> obs, ModelKind kind);

/// Directly measured sustained throughputs ("sustained peak" in the
/// paper's terms): the best observed flop rate and byte rate over the
/// sweep. The regression fixes tau_flop/tau_mem to these — per-op times
/// are NOT identifiable by regression alone on machines whose power cap
/// rides at or below the engine's demand (pi_mem >~ delta_pi on the
/// NUC CPU, APU GPU, ...), where the rate limit never binds.
struct MeasuredThroughput {
  double tau_flop = 0.0;  ///< s/flop from the fastest compute-bound point
  double tau_mem = 0.0;   ///< s/B from the fastest bandwidth-bound point
};

[[nodiscard]] MeasuredThroughput measure_throughput(
    std::span<const microbench::Observation> obs);

}  // namespace archline::fit
