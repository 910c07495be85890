#include "core/machine_params.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace archline::core {

double MachineParams::balance_hi() const noexcept {
  // B_tau+ = B_tau * max(1, pi_mem / (delta_pi - pi_flop))   (eq. 5)
  // When delta_pi <= pi_flop there is no headroom for memory at all while
  // running flops at rate; the interval degenerates to +infinity.
  const double headroom = delta_pi - pi_flop();
  if (uncapped()) return time_balance();
  if (headroom <= 0.0) return std::numeric_limits<double>::infinity();
  return time_balance() * std::max(1.0, pi_mem() / headroom);
}

double MachineParams::balance_lo() const noexcept {
  // B_tau- = B_tau * min(1, (delta_pi - pi_mem) / pi_flop)   (eq. 6)
  if (uncapped()) return time_balance();
  const double headroom = delta_pi - pi_mem();
  if (headroom <= 0.0) return 0.0;
  return time_balance() * std::min(1.0, headroom / pi_flop());
}

double MachineParams::max_power() const noexcept {
  return pi1 + std::min(delta_pi, pi_flop() + pi_mem());
}

MachineParams MachineParams::without_cap() const noexcept {
  MachineParams p = *this;
  p.delta_pi = kUncapped;
  return p;
}

void MachineParams::validate(const std::string& context) const {
  const auto fail = [&context](const std::string& what) {
    throw std::invalid_argument(context + ": " + what);
  };
  const auto positive_finite = [&fail](double v, const char* name) {
    if (!(v > 0.0) || !std::isfinite(v))
      fail(std::string(name) + " must be positive and finite");
  };
  positive_finite(tau_flop, "tau_flop");
  positive_finite(eps_flop, "eps_flop");
  positive_finite(tau_mem, "tau_mem");
  positive_finite(eps_mem, "eps_mem");
  if (!(pi1 >= 0.0) || !std::isfinite(pi1))
    fail("pi1 must be non-negative and finite");
  if (!(delta_pi > 0.0)) fail("delta_pi must be positive");
}

}  // namespace archline::core
