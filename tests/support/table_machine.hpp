#pragma once
// A machine written in the units of the paper's Table I, for tests that
// check eqs. (1)-(7) against the published numbers.

#include "core/machine_params.hpp"
#include "core/units.hpp"

namespace archline::core {

/// Sustained Gflop/s, pJ/flop, sustained GB/s, pJ/B, and the constant
/// and cap powers in watts.
[[nodiscard]] inline MachineParams from_table(double gflops,
                                              double pj_per_flop,
                                              double gbytes,
                                              double pj_per_byte,
                                              double pi1, double delta_pi) {
  return {.tau_flop = 1.0 / units::from_gflops(gflops),
          .eps_flop = units::from_picojoules(pj_per_flop),
          .tau_mem = 1.0 / units::from_gbytes(gbytes),
          .eps_mem = units::from_picojoules(pj_per_byte),
          .pi1 = pi1,
          .delta_pi = delta_pi};
}

}  // namespace archline::core
