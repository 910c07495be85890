#pragma once
// The end-to-end fitting pipeline (paper §V-A): from a platform's
// microbenchmark SuiteData to statistically fitted model parameters —
// tau_flop, tau_mem, eps_flop, eps_mem, pi1, delta_pi, plus per-cache-level
// and random-access constants.
//
// Strategy: tau_flop and tau_mem are the measured sustained rates. With
// them fixed, the DRAM/SP model is linear in eps_flop, eps_mem and pi1
// wherever the cap binds on no kernel, so the uncapped fit is an exact
// non-negative least-squares solve. The capped fit is the better of two
// branches: flat, where the cap binds nowhere (the same exact solve plus
// the linear max-power anchor, delta_pi published at pi_flop + pi_mem),
// and binding, where it binds on at least one kernel (a profile over log
// delta_pi below the largest kernel demand, each point's inner problem
// solved by Levenberg-Marquardt, then LM polishes from the best point
// and its neighbours).
// Double precision and cache levels are fitted conditionally on the
// DRAM/SP fit, mirroring how the paper's constants share one
// pi1/delta_pi per platform. Each tail is the same search shape over
// (tau, eps): a profile over log tau around the measured sustained
// rate, with eps solved exactly at each point (with tau fixed, each
// residual is affine in eps on either side of where a kernel's demand
// crosses delta_pi), then LM polishes from the best point and its
// neighbours.

#include <limits>
#include <optional>

#include "fit/objective.hpp"

namespace archline::fit {

struct FitOptions {
  ModelKind kind = ModelKind::Capped;
  /// Levenberg-Marquardt budget of each polish: the tails' and the
  /// capped DRAM/SP fit's.
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
  /// Capped: the RSS of the branch that lost (flat or binding, see the
  /// strategy above); infinity when it had no candidate. Uncapped:
  /// infinity.
  double runner_up_rss = std::numeric_limits<double>::infinity();
  /// Capped: the flat branch won, so the cap binds on no DRAM/SP kernel.
  /// Uncapped: false.
  bool flat_cap = false;
  /// Capped: true when the flat branch won (its solve is exact), else
  /// whether the binding branch's LM polish met its tolerance.
  /// Uncapped: true (the solve is exact).
  bool converged = false;

  /// R^2 of log-performance predictions over the DRAM/SP sweep.
  double r_squared_perf = 0.0;
};

/// Fits the DRAM/SP machine (and, where data exists, DP, L1, L2, random)
/// from a platform's suite. Throws std::invalid_argument on insufficient
/// data.
[[nodiscard]] FitResult fit_machine(const microbench::SuiteData& data,
                                    const FitOptions& options = {});

/// fit_machine's capped DRAM/SP objective at `m` (or uncapped, per
/// options.kind): the squared relative residuals of data.dram_sp, then
/// the idle and max-power anchors with the hints fit_machine derives from
/// `data`. At the fitted machine it reproduces FitResult::rss.
[[nodiscard]] double suite_objective(const core::MachineParams& m,
                                     const microbench::SuiteData& data,
                                     const FitOptions& options = {});

/// Fits only from a flat span of observations (e.g. data loaded from CSV
/// by the fit_from_csv example). DRAM-level streaming points only.
[[nodiscard]] FitResult fit_observations(
    std::span<const microbench::Observation> obs,
    const FitOptions& options = {});

}  // namespace archline::fit
