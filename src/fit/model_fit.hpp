#pragma once
// The end-to-end fitting pipeline (paper §V-A): from a platform's
// microbenchmark SuiteData to statistically fitted model parameters —
// tau_flop, tau_mem, eps_flop, eps_mem, pi1, delta_pi, plus per-cache-level
// and random-access constants.
//
// Strategy: tau_flop and tau_mem are the measured sustained rates. The
// uncapped DRAM/SP model is then linear in eps_flop, eps_mem and pi1, and
// its fit is an exact non-negative least-squares solve. The capped model
// is searched: heuristic seeds -> Nelder-Mead (handles the max() kinks)
// -> Levenberg-Marquardt polish. Double precision and cache levels are
// fitted the same way, conditionally on the DRAM/SP fit, mirroring how
// the paper's constants share one pi1/delta_pi per platform.

#include <optional>

#include "fit/objective.hpp"

namespace archline::fit {

struct FitOptions {
  ModelKind kind = ModelKind::Capped;
  /// Budgets of the searched fits (capped DRAM/SP, DP, cache levels);
  /// the uncapped DRAM/SP solve has none.
  int nm_evaluations = 20000;
  int lm_iterations = 120;

  /// Measured idle power [W]; 0 = unknown. When set, a weighted residual
  /// anchors pi1 near it. Without this anchor, pi1 trades off against
  /// eps_flop on machines where the constant-power charge dominates the
  /// per-flop energy (e.g. APU CPU: pi1*tau_flop ~ 40x eps_flop), exactly
  /// the ill-conditioning the paper sidesteps by measuring idle power
  /// separately (Table I column 6).
  double idle_watts_hint = 0.0;

  /// Relative weight of the idle anchor residual.
  double idle_weight = 4.0;

  /// Maximum observed average power over the sweep [W]; 0 = unknown.
  /// Wherever the cap binds, measured power plateaus at pi1 + delta_pi
  /// (the paper's Fig. 5 "[99%] of cap" annotations), so this anchors the
  /// cap level on platforms where throttling distorts the sweep too
  /// weakly for the time residuals to pin delta_pi (Xeon Phi's cap binds
  /// by only ~2%).
  double max_watts_hint = 0.0;

  /// Relative weight of the peak-power anchor residual.
  double max_watts_weight = 4.0;

  /// Robustness to corrupted measurements: after an initial fit, drop
  /// observations whose worst relative residual exceeds this multiple of
  /// the median absolute residual, then refit on the survivors.
  /// 0 disables (the default — the simulator produces no gross outliers;
  /// real campaigns do).
  double outlier_mad_threshold = 0.0;
};

/// Fitted per-flop costs for a second precision.
struct FlopFit {
  double tau_flop = 0.0;
  double eps_flop = 0.0;
};

/// Fitted per-byte costs for a cache level.
struct LevelFit {
  double tau_byte = 0.0;
  double eps_byte = 0.0;
};

/// Fitted per-access costs for the random path.
struct RandomFit {
  double tau_access = 0.0;
  double eps_access = 0.0;
};

struct FitResult {
  core::MachineParams machine;        ///< SP @ DRAM (capped or uncapped)
  std::optional<FlopFit> dp;          ///< double precision flops
  std::optional<LevelFit> l1;
  std::optional<LevelFit> l2;
  std::optional<RandomFit> random;

  ModelKind kind = ModelKind::Capped;
  double rss = 0.0;                   ///< DRAM/SP residual sum of squares
  std::size_t observations = 0;       ///< DRAM/SP points used
  /// Capped: the best start's NM or LM met its tolerance. Uncapped: true
  /// (the solve is exact).
  bool converged = false;

  /// R^2 of log-performance predictions over the DRAM/SP sweep.
  double r_squared_perf = 0.0;
};

/// Fits the DRAM/SP machine (and, where data exists, DP, L1, L2, random)
/// from a platform's suite. Throws std::invalid_argument on insufficient
/// data.
[[nodiscard]] FitResult fit_machine(const microbench::SuiteData& data,
                                    const FitOptions& options = {});

/// Fits only from a flat span of observations (e.g. data loaded from CSV
/// by the fit_from_csv example). DRAM-level streaming points only.
[[nodiscard]] FitResult fit_observations(
    std::span<const microbench::Observation> obs,
    const FitOptions& options = {});

}  // namespace archline::fit
