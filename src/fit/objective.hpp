#pragma once
// Residual functions connecting the roofline model to measured
// observations.
//
// CONTRACT — rows per kernel, in a fixed order. Every residual is
// relative, m a - 1 with a = 1/y for a measured y and the model's m for
// that observation's kernel, so the n observations of one kernel need
// not be visited one by one: with a-bar the mean of their a and S =
// sum (a - a-bar)^2, sum (m a - 1)^2 = n (m a-bar - 1)^2 + m^2 S. Each
// kernel and quantity therefore gives two rows, sqrt(n) (m a-bar - 1)
// and m sqrt(S), which give the same objective, J^T J and J^T r as the
// n per-observation rows in exact arithmetic. The rules that keep the
// rounding fixed (the golden-reply corpus pins the `fit` endpoint's
// constants to the last bit):
//
//   * a kernel is the set of observations with the bits of (W, Q);
//     repeats need not be adjacent, and kernels are numbered in the
//     order of their first observation. Its moments are accumulated
//     once, in observation order, with Welford's update (mean += d / n;
//     S += d (a - mean)), never as sum a^2 - n a-bar^2;
//   * a kernel's model time is core::time(), its energy core::energy()'s
//     sum W eps_flop + Q eps_mem + pi1 T in that order, and its power
//     E / T;
//   * the rows of kernel k are, in this order, time sqrt(n) (m a-bar -
//     1), time m sqrt(S), then the same two for energy and for power;
//     kernels follow in order;
//   * the sum adds each row's square in row order into one serial
//     accumulator: the same sum as squaring residuals() element by
//     element. Reordering or splitting that sum changes the rounding and
//     with it the golden `fit` bytes.

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

/// Observations reduced once per fit to per-kernel moments — the form
/// the objective reads. Time, energy and power residuals are relative:
/// (T/t - 1, E/e - 1, P/p - 1) per observation, six rows per kernel (see
/// the contract above).
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
  /// The measured quantities, in row order.
  enum Quantity : std::size_t { kTime, kEnergy, kPower };

  /// One kernel's moments of a = 1/y for one quantity.
  struct Moments {
    double root_count = 0.0;   ///< sqrt(n)
    double mean = 0.0;         ///< mean of a
    double root_spread = 0.0;  ///< sqrt(sum (a - mean)^2)
  };

  /// One kernel: the work its observations share, their moments per
  /// Quantity, and the model terms of the last evaluation.
  struct Kernel {
    double flops = 0.0;
    double bytes = 0.0;
    Moments moments[3];
    double time = 0.0;
    double energy = 0.0;
  };

  explicit ObservationColumns(std::span<const microbench::Observation> obs);

  /// Number of observations.
  [[nodiscard]] std::size_t size() const noexcept { return kernel_of_.size(); }
  /// Number of kernels: distinct bits of (W, Q).
  [[nodiscard]] std::size_t kernels() const noexcept { return kernels_.size(); }
  /// Number of residual rows: six per kernel.
  [[nodiscard]] std::size_t rows() const noexcept { return 6 * kernels(); }
  /// Kernel k, numbered in order of first appearance.
  [[nodiscard]] const Kernel& kernel(std::size_t k) const noexcept {
    return kernels_[k];
  }
  /// The number of observation i's kernel.
  [[nodiscard]] std::size_t kernel_of(std::size_t i) const noexcept {
    return kernel_of_[i];
  }

  /// Sets every kernel's model time and energy at `m`: core::time() and
  /// core::energy() bit for bit.
  void evaluate(const core::MachineParams& m);

  /// Writes the rows() residuals, kernel by kernel, to `out`, which must
  /// hold at least that many. Allocates nothing.
  void residuals(const core::MachineParams& m, std::span<double> out);

  /// Sum of squared residuals — the fits' scalar objective. Allocates
  /// nothing.
  [[nodiscard]] double sum_squared_residuals(const core::MachineParams& m);

 private:
  template <typename Visit>
  void for_each_row(const core::MachineParams& m, Visit visit);

  std::vector<Kernel> kernels_;
  std::vector<std::size_t> kernel_of_;  ///< per observation
};

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
