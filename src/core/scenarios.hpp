#pragma once
// "What-if" scenario machinery — paper §V-D.
//
// Scenario families:
//   * power throttling: scale the usable cap to delta_pi / k (Fig. 6, 7);
//   * aggregation: a hypothetical node built from n copies of a building
//     block (Fig. 1's "47 x Arndale GPU" system);
//   * power bounding: reduce a big block's node power to a bound and ask
//     how many small blocks match that bound and how they compare (§V-D-j);
//   * operating points: the workload at every DVFS state of a table, and
//     the cap-vs-DVFS study — meet a power target by throttling (the
//     paper's mechanism, after Rountree et al.'s "Beyond DVFS") or by
//     down-clocking, and ask which wins as a function of intensity.

#include <span>
#include <string>
#include <vector>

#include "core/machine_params.hpp"
#include "core/operating_point.hpp"
#include "core/roofline.hpp"

namespace archline::core {

/// Returns a machine identical to `m` but with usable power delta_pi / k.
/// k must be >= 1. pi1 and all per-op costs stay fixed (the paper's
/// assumption in §V-D-i).
[[nodiscard]] MachineParams with_cap_scaled(const MachineParams& m, double k);

/// Returns a machine identical to `m` but with the usable cap replaced by
/// an absolute wattage.
[[nodiscard]] MachineParams with_cap(const MachineParams& m,
                                     double delta_pi_watts);

/// An aggregate of n identical building blocks: n-fold throughputs
/// (tau / n), n-fold powers (n * pi1, n * delta_pi), unchanged per-op
/// energies. Interconnect costs are explicitly ignored, as in the paper's
/// best-case analysis (§I-A). n must be >= 1.
[[nodiscard]] MachineParams aggregate(const MachineParams& m, int n);

/// Smallest n such that n blocks' maximum power >= target (using
/// pi1 + delta_pi per block as the per-node power budget, the basis of the
/// paper's "47 x Arndale GPU" figure). Returns 0 if target <= 0.
[[nodiscard]] int blocks_to_match_power(const MachineParams& block,
                                        double target_watts);

/// One row of a throttling sweep (Fig. 6/7): intensity + the modeled
/// power / performance / energy-efficiency at a given cap divisor.
struct ThrottlePoint {
  double intensity = 0.0;
  double cap_divisor = 1.0;   ///< k; cap = delta_pi / k
  double power = 0.0;         ///< [W]
  double performance = 0.0;   ///< [flop/s]
  double efficiency = 0.0;    ///< [flop/J]
  Regime regime = Regime::Compute;
};

/// Sweeps intensity (log2 grid) x cap divisors; the raw material of
/// Figs. 6, 7a, 7b.
[[nodiscard]] std::vector<ThrottlePoint> throttle_sweep(
    const MachineParams& m, const std::vector<double>& intensities,
    const std::vector<double>& cap_divisors);

/// Result of the §V-D power-bounding comparison.
struct PowerBoundComparison {
  double bound_watts = 0.0;        ///< per-node power bound
  double big_cap_divisor = 0.0;    ///< k needed to fit the big block under it
  double big_performance = 0.0;    ///< big block's flop/s at `intensity`, capped
  double big_slowdown = 0.0;       ///< vs. its own uncapped-cap performance
  int small_count = 0;             ///< blocks of the small platform matching bound
  double small_performance = 0.0;  ///< aggregate flop/s at `intensity`
  double speedup = 0.0;            ///< small aggregate / big capped
};

/// Reproduces §V-D-j: cap `big` to `bound_watts` total node power (by
/// reducing delta_pi; pi1 is not reducible), assemble `small` blocks to the
/// same bound, compare performance at `intensity`.
[[nodiscard]] PowerBoundComparison power_bound_comparison(
    const MachineParams& big, const MachineParams& small, double bound_watts,
    double intensity);

/// The abstract's operational claim: the model "suggests how, with
/// respect to intensity, operations should be throttled to meet a power
/// cap." At intensity I under usable power `cap_watts`, execution slows
/// by lambda = max(1, (pi_flop/cap)(1 + B_eps/I) / max(1, B_tau/I));
/// both engines then run at 1/lambda of the rate they would have had.
struct ThrottleRequirement {
  double intensity = 0.0;
  double cap_watts = 0.0;       ///< the usable-power budget applied
  double slowdown = 1.0;        ///< execution time inflation (>= 1)
  double flop_rate_fraction = 1.0;  ///< achieved / sustained flop rate
  double mem_rate_fraction = 1.0;   ///< achieved / sustained byte rate
  Regime regime = Regime::Compute;  ///< regime under the cap
};

/// Computes the required issue-rate reduction for machine `m` at
/// intensity I when its usable power is limited to `cap_watts`
/// (which may differ from m.delta_pi). cap_watts must be positive.
[[nodiscard]] ThrottleRequirement throttle_requirement(
    const MachineParams& m, double intensity, double cap_watts);

/// One row of an operating-point sweep: the workload's predicted
/// time/energy/power at a single DVFS state (the fourth scenario
/// family, added with the operating-point refactor).
struct OperatingPointOutcome {
  std::size_t point_index = 0;
  double freq_scale = 1.0;
  double time_s = 0.0;
  double energy_j = 0.0;
  double avg_power_w = 0.0;
  double edp = 0.0;  ///< energy_j * time_s
  Regime regime = Regime::Compute;
};

/// Evaluates one workload at every point of a table, in table order —
/// the raw material behind policy_advise's plan rows and the
/// ext_dvfs_vs_cap bench's DVFS column.
[[nodiscard]] std::vector<OperatingPointOutcome> operating_point_sweep(
    const MachineParams& base, std::span<const OperatingPoint> points,
    const Workload& w);

/// Largest frequency scale whose worst-case average power (over all
/// intensities) fits under `target_watts`, bisecting over
/// apply_operating_point(m, dvfs_operating_point(model, s)). Returns 1.0
/// when no scaling is needed; throws std::invalid_argument when the
/// target is below what even min_scale reaches.
[[nodiscard]] double dvfs_scale_for_power(const MachineParams& m,
                                          const DvfsModel& model,
                                          double target_watts);

/// Head-to-head at one intensity: meet `target_watts` of worst-case node
/// power by capping (delta_pi reduced) vs by DVFS.
struct PowerMechanismComparison {
  double target_watts = 0.0;
  double intensity = 0.0;
  double cap_performance = 0.0;   ///< flop/s under the reduced cap
  double cap_efficiency = 0.0;    ///< flop/J
  double dvfs_performance = 0.0;  ///< flop/s at the reduced frequency
  double dvfs_efficiency = 0.0;
  double frequency_scale = 0.0;   ///< the s DVFS needed
  /// dvfs_efficiency / cap_efficiency: > 1 where down-clocking saves
  /// energy that throttling cannot.
  [[nodiscard]] double efficiency_advantage() const noexcept {
    return dvfs_efficiency / cap_efficiency;
  }
};

[[nodiscard]] PowerMechanismComparison compare_cap_vs_dvfs(
    const MachineParams& m, const DvfsModel& model, double target_watts,
    double intensity);

}  // namespace archline::core
