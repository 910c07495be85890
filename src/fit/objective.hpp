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
//   * each observation's model time is core::time()'s expression,
//     max({W tau_flop, Q tau_mem, (W eps_flop + Q eps_mem) / delta_pi})
//     with std::max's choice (the first maximum under <, NaN included),
//     and its energy is core::energy()'s, W eps_flop + Q eps_mem + pi1 t,
//     in the same order; a kernel's repeats (adjacent observations with
//     identical W and Q) share these terms, which is the same value;
//   * residuals may be computed in SIMD lanes across observations —
//     lanes run the same IEEE operations, with no FMA — but the sum adds
//     r_t^2, r_e^2, r_p^2 per observation, in observation order, into
//     one serial accumulator: the same sum as squaring
//     time_energy_residuals() element by element. Reordering or splitting
//     that sum changes the rounding and with it the golden `fit` bytes.

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

/// Observations packed once per fit into contiguous columns — the form
/// the objective reads. Time, energy and power residuals are relative,
/// three per observation: (T/t - 1, E/e - 1, P/p - 1).
///
/// Power is E/T and thus analytically redundant, but including it weights
/// the fit toward reproducing the power curve's *shape* — which is what
/// separates a flat cap plateau from a rising memory-bound segment on
/// platforms where pi_mem ~ delta_pi (e.g. the APU GPU) and pins delta_pi
/// near the observed peak power when the cap barely binds (Xeon Phi).
///
/// Evaluation writes per-kernel scratch, so one object serves one thread.
class ObservationColumns {
 public:
  explicit ObservationColumns(std::span<const microbench::Observation> obs);

  /// Number of observations.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Writes the 3 * size() residuals, observation by observation, to
  /// `out`, which must hold at least that many. Allocates nothing.
  void residuals(const core::MachineParams& m, std::span<double> out);

  /// Sum of squared residuals — the scalar objective for Nelder-Mead
  /// seeding. Allocates nothing.
  [[nodiscard]] double sum_squared_residuals(const core::MachineParams& m);

 private:
  template <typename Visit>
  void for_each_pair(const core::MachineParams& m, Visit visit);

  std::size_t size_ = 0;
  // Per kernel (a run of adjacent observations with identical W and Q),
  // padded to an even count: work, then the model terms of the last
  // evaluation.
  std::vector<double> flops_, bytes_, time_, energy_, power_;
  // Per observation, padded to an even count.
  std::vector<std::size_t> kernel_;
  std::vector<double> seconds_, joules_, watts_;
};

/// time/energy/power residuals of `obs` (see ObservationColumns), one
/// call at a time. No shipped code calls it; it stays as the test form:
/// tests/test_objective.cpp's Residuals.* cases read the residual
/// vector through it.
[[nodiscard]] std::vector<double> time_energy_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs);

/// Sum of squared time_energy_residuals. No shipped code calls it; it
/// stays as the test form: tests/test_objective.cpp's
/// ObservationColumns.* cases check it bit for bit against the test's
/// spelled-out reference_sum, and Residuals.* compare fits through it.
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
