#pragma once
// The extended ("capped") energy roofline model — paper §III, eqs. (1)-(7).
//
// Given MachineParams and a workload (W flops, Q bytes, or equivalently
// total flops at intensity I = W/Q), these functions predict best-case
// execution time, energy, average power, and the execution regime. Setting
// delta_pi = kUncapped recovers the authors' prior model [Choi et al.,
// IPDPS 2013], which the paper's Fig. 4 compares against.

#include <algorithm>

#include "core/machine_params.hpp"

namespace archline::core {

/// Which term of eq. (3)'s max dominates execution.
enum class Regime {
  Compute,   ///< W * tau_flop dominates ("F" in Fig. 6)
  Memory,    ///< Q * tau_mem dominates ("M")
  PowerCap,  ///< (W eps_flop + Q eps_mem) / delta_pi dominates ("C")
};

[[nodiscard]] const char* regime_name(Regime r) noexcept;
[[nodiscard]] char regime_letter(Regime r) noexcept;  // 'F', 'M', 'C'

/// Best-case execution time, eq. (3):
///   T = max(W tau_flop, Q tau_mem, (W eps_flop + Q eps_mem) / delta_pi).
/// Defined here so the fit objective's per-observation loop inlines it.
[[nodiscard]] inline double time(const MachineParams& m,
                                 const Workload& w) noexcept {
  const double t_flop = w.flops * m.tau_flop;
  const double t_mem = w.bytes * m.tau_mem;
  const double t_cap =
      m.uncapped() ? 0.0
                   : (w.flops * m.eps_flop + w.bytes * m.eps_mem) / m.delta_pi;
  return std::max({t_flop, t_mem, t_cap});
}

/// Total energy, eq. (1): E = W eps_flop + Q eps_mem + pi1 * T.
[[nodiscard]] double energy(const MachineParams& m,
                            const Workload& w) noexcept;

/// Average power E / T. Equals avg_power_closed_form for all inputs
/// (verified by property tests).
[[nodiscard]] double avg_power(const MachineParams& m,
                               const Workload& w) noexcept;

/// The regime selected by eq. (3)'s max for this workload. Ties resolve
/// in the order PowerCap > Memory > Compute (the cap "explains" equality).
[[nodiscard]] Regime regime(const MachineParams& m,
                            const Workload& w) noexcept;

// ---- Intensity-parameterized forms ---------------------------------------

/// Time per flop at intensity I, eq. (4):
///   T/W = tau_flop * max(1, B_tau / I, (pi_flop/delta_pi)(1 + B_eps/I)).
[[nodiscard]] double time_per_flop(const MachineParams& m,
                                   double intensity) noexcept;

/// Energy per flop at intensity I, eq. (2) divided by W:
///   E/W = eps_flop (1 + B_eps / I) + pi1 * (T/W).
[[nodiscard]] double energy_per_flop(const MachineParams& m,
                                     double intensity) noexcept;

/// Performance W/T [flop/s] at intensity I.
[[nodiscard]] double performance(const MachineParams& m,
                                 double intensity) noexcept;

/// Energy efficiency W/E [flop/J] at intensity I.
[[nodiscard]] double energy_efficiency(const MachineParams& m,
                                       double intensity) noexcept;

/// Achieved memory bandwidth Q/T [B/s] at intensity I.
[[nodiscard]] double bandwidth(const MachineParams& m,
                               double intensity) noexcept;

/// Average power at intensity I via the closed form, eq. (7):
///   P = pi1 + { pi_flop + pi_mem * B_tau / I        if I >= B_tau+
///             { pi_flop * I / B_tau + pi_mem        if I <= B_tau-
///             { delta_pi                            otherwise.
[[nodiscard]] double avg_power_closed_form(const MachineParams& m,
                                           double intensity) noexcept;

/// Regime at intensity I (PowerCap iff B_tau- < I < B_tau+ under an
/// insufficient cap; boundary ties as in regime()).
[[nodiscard]] Regime regime_at(const MachineParams& m,
                               double intensity) noexcept;

// ---- Cross-machine comparison --------------------------------------------

/// Metric selector for crossover searches.
enum class Metric { Performance, EnergyEfficiency, Power };

/// Evaluates the chosen metric at intensity I.
[[nodiscard]] double metric_value(const MachineParams& m, Metric metric,
                                  double intensity) noexcept;

/// Finds an intensity in [lo, hi] where machines a and b tie on `metric`
/// (ratio crosses 1), by bisection on log2(I). Returns a negative value if
/// the ratio does not change sides over the bracket.
[[nodiscard]] double crossover_intensity(const MachineParams& a,
                                         const MachineParams& b, Metric metric,
                                         double lo = 1.0 / 64.0,
                                         double hi = 512.0);

}  // namespace archline::core
