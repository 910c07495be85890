#pragma once
// DVFS operating points: the discrete frequency/voltage states a
// platform can run at, promoted to a first-class model dimension.
//
// The paper's machine (§III) is a single MachineParams point — one
// frequency, one voltage. Real building blocks expose a ladder of
// P-states: slowing the clock by s stretches the per-op *times* by 1/s
// while the dynamic share of per-op *energy* shrinks by roughly s^2
// (voltage tracks frequency), and the constant/idle power follows its
// own, much flatter, curve. An OperatingPoint captures exactly those
// per-point facts; apply_operating_point() produces the MachineParams
// the eqs. (1)-(7) machinery consumes, so every existing prediction,
// scenario, and sensitivity tool works per point unchanged.
//
// The continuous DvfsModel below is the one *generator* of operating
// points: dvfs_operating_point() materializes the state at one frequency
// scale. The platform ladders (platforms/spec.cpp) and the cap-vs-DVFS
// study (scenarios.hpp) both build their states through it, and the
// policy engine (policy.hpp) evaluates execution plans across a table of
// them.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/machine_params.hpp"

namespace archline::core {

/// One discrete DVFS state.
struct OperatingPoint {
  std::string label;  ///< e.g. "0.70x"; stable across a table's lifetime

  /// Clock scale s relative to nominal: rates scale by s, per-op times
  /// by 1/s. Must be positive and finite; > 1 models a turbo state.
  double freq_scale = 1.0;

  /// Multiplier on the *dynamic* per-op energy (eps_flop, and eps_mem
  /// when scale_memory). For a leakage fraction L this is
  /// L + (1 - L) s^2 — see dvfs_energy_scale().
  double energy_scale = 1.0;

  /// Whether the memory system shares the scaled clock/voltage domain.
  /// Discrete DRAM usually does not; on-chip scratchpads often do.
  bool scale_memory = false;

  /// Constant power pi1 while *running* at this point [W]. Negative
  /// means "inherit the base machine's pi1" (the paper's constant).
  double pi1_watts = -1.0;

  /// Power drawn while *parked* (idle) at this point [W]. Race-to-idle
  /// plans pay this for the slack left in a period.
  double idle_watts = 0.0;

  /// Throws std::invalid_argument on non-finite / non-positive scales
  /// or a negative idle power.
  void validate() const;
};

/// The dynamic-energy multiplier of the standard leakage model:
/// leakage + (1 - leakage) * s^2.
[[nodiscard]] double dvfs_energy_scale(double leakage_fraction,
                                       double s) noexcept;

/// Voltage-frequency scaling as a continuous family of operating points:
/// slowing the clock by s also scales the dynamic part of per-op energy
/// by ~s^2 (V roughly tracks f), while leakage and constant power do not
/// scale.
struct DvfsModel {
  /// Fraction of per-op energy that does NOT scale with V^2 (leakage,
  /// short-circuit, uncore).
  double leakage_fraction = 0.3;

  /// Whether the memory system shares the scaled clock domain. Discrete
  /// DRAM usually does not; on-chip scratchpads often do.
  bool scale_memory = false;

  /// Lowest usable frequency scale (voltage floor).
  double min_scale = 0.2;

  void validate() const;
};

/// The operating point this model generates at frequency scale s in
/// [min_scale, 1]: energy_scale = dvfs_energy_scale(leakage, s), label
/// "<s>x" ("%.2fx"). pi1/idle are left at their defaults (inherit / 0);
/// platform tables supply their own.
[[nodiscard]] OperatingPoint dvfs_operating_point(const DvfsModel& model,
                                                  double s);

/// The machine at an operating point: times stretched by 1/s, dynamic
/// energies scaled, pi1 replaced when the point carries its own.
/// delta_pi is untouched — the usable-power cap is an external limit,
/// not a property of the P-state.
[[nodiscard]] MachineParams apply_operating_point(const MachineParams& m,
                                                  const OperatingPoint& p);

/// A platform's ladder of operating points, ordered by ascending
/// freq_scale (validate() enforces strict ordering). The highest point
/// is the nominal state; the lowest point's idle_watts is the deepest
/// park power available to race-to-idle plans.
struct OperatingPointTable {
  std::vector<OperatingPoint> points;

  [[nodiscard]] bool empty() const noexcept { return points.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }

  /// The fastest point (table back). Table must be non-empty.
  [[nodiscard]] const OperatingPoint& nominal() const;

  /// Deepest idle power: the minimum idle_watts over all points.
  /// Returns 0 for an empty table.
  [[nodiscard]] double park_watts() const noexcept;

  /// Throws std::invalid_argument when empty, when any point fails its
  /// own validate(), or when freq_scale is not strictly increasing.
  void validate() const;
};

/// Machines for every point of a table, in table order.
[[nodiscard]] std::vector<MachineParams> machines_at_points(
    const MachineParams& base, std::span<const OperatingPoint> points);

}  // namespace archline::core
