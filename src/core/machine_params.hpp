#pragma once
// The abstract machine of the paper's §III: four fundamental time/energy
// costs, constant power pi1, and the usable-power cap delta_pi.
//
// MachineParams is the central value type of archline. Everything else —
// roofline predictions, what-if scenarios, fitting, the simulator — is
// expressed in terms of it.

#include <limits>
#include <string>

namespace archline::core {

/// Work performed by an abstract algorithm: W flops and Q bytes moved
/// between slow and fast memory (fig. 2 of the paper).
struct Workload {
  double flops = 0.0;  ///< W, flop
  double bytes = 0.0;  ///< Q, B

  /// Operational intensity I = W / Q [flop/B]. Q must be positive.
  [[nodiscard]] double intensity() const noexcept { return flops / bytes; }

  /// Builds a workload of `flops` total flop at intensity I.
  [[nodiscard]] static Workload from_intensity(double flops,
                                               double intensity) noexcept {
    return Workload{.flops = flops, .bytes = flops / intensity};
  }
};

/// Sentinel for an uncapped machine (the paper's prior model [3], [4]).
inline constexpr double kUncapped = std::numeric_limits<double>::infinity();

/// Fundamental machine parameters (paper §III-a).
///
/// Invariants (checked by validate()): all costs positive and finite;
/// pi1 >= 0; delta_pi > 0 (possibly infinite = uncapped).
struct MachineParams {
  double tau_flop = 0.0;  ///< time per flop [s/flop]; 1 / sustained flop/s
  double eps_flop = 0.0;  ///< energy per flop [J/flop]
  double tau_mem = 0.0;   ///< time per byte [s/B]; 1 / sustained B/s
  double eps_mem = 0.0;   ///< energy per byte [J/B]
  double pi1 = 0.0;       ///< constant power [W]
  double delta_pi = kUncapped;  ///< usable power above pi1 [W]

  // ---- Derived quantities (paper §III) ------------------------------

  /// Peak flop power pi_flop = eps_flop / tau_flop [W].
  [[nodiscard]] double pi_flop() const noexcept { return eps_flop / tau_flop; }

  /// Peak memory power pi_mem = eps_mem / tau_mem [W].
  [[nodiscard]] double pi_mem() const noexcept { return eps_mem / tau_mem; }

  /// Time balance B_tau = tau_mem / tau_flop [flop/B]: the machine's
  /// intrinsic flop:Byte ratio.
  [[nodiscard]] double time_balance() const noexcept {
    return tau_mem / tau_flop;
  }

  /// Energy balance B_eps = eps_mem / eps_flop [flop/B].
  [[nodiscard]] double energy_balance() const noexcept {
    return eps_mem / eps_flop;
  }

  /// Upper throttled balance point B_tau+ (paper eq. 5).
  [[nodiscard]] double balance_hi() const noexcept;

  /// Lower throttled balance point B_tau- (paper eq. 6).
  [[nodiscard]] double balance_lo() const noexcept;

  /// True when delta_pi is the kUncapped sentinel.
  [[nodiscard]] bool uncapped() const noexcept {
    return delta_pi == kUncapped;
  }

  /// Maximum achievable average system power pi1 + min(delta_pi,
  /// pi_flop + pi_mem) [W].
  [[nodiscard]] double max_power() const noexcept;

  /// Sustained peak throughputs implied by the time costs.
  [[nodiscard]] double peak_flops() const noexcept { return 1.0 / tau_flop; }
  [[nodiscard]] double peak_bandwidth() const noexcept {
    return 1.0 / tau_mem;
  }

  /// Returns a copy with the cap removed (the paper's prior model).
  [[nodiscard]] MachineParams without_cap() const noexcept;

  /// Throws std::invalid_argument (with `context` in the message) if any
  /// invariant is violated.
  void validate(const std::string& context = "MachineParams") const;
};

}  // namespace archline::core
