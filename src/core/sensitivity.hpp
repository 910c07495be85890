#pragma once
// Parameter sensitivity: which machine constant limits a workload?
//
// The paper's §V-C/§VI conclusion — "driving down pi1 would be the key
// factor for improving overall system power reconfigurability" — is a
// sensitivity statement. This module makes such statements quantitative
// for any (machine, metric, intensity): the logarithmic derivative
// d log(metric) / d log(parameter), i.e. the % change in the metric per
// % change in the parameter. Elasticities obey sanity identities the
// tests verify (e.g. deep in the memory-bound regime performance has
// elasticity -1 to tau_mem and 0 to tau_flop; energy elasticities to
// {eps_flop, eps_mem, pi1-charge} sum to -1 for efficiency).

#include <array>
#include <string>

#include "core/machine_params.hpp"
#include "core/roofline.hpp"

namespace archline::core {

enum class Param {
  TauFlop,
  EpsFlop,
  TauMem,
  EpsMem,
  Pi1,
  DeltaPi,
};

inline constexpr std::array<Param, 6> kAllParams = {
    Param::TauFlop, Param::EpsFlop, Param::TauMem,
    Param::EpsMem,  Param::Pi1,     Param::DeltaPi};

[[nodiscard]] const char* to_string(Param p) noexcept;

/// Returns a copy of `m` with one parameter multiplied by `factor`.
[[nodiscard]] MachineParams with_param_scaled(const MachineParams& m,
                                              Param p, double factor);

/// Elasticity d log(metric) / d log(param) at the given intensity,
/// via symmetric log-space differences (h = 1e-4 by default). Shipped
/// code calls sensitivity_profile(); this one-parameter form is its
/// oracle: Kernels.SensitivityProfileBitIdenticalToElasticity
/// (tests/test_kernels.cpp) compares the two bit for bit.
[[nodiscard]] double elasticity(const MachineParams& m, Param p,
                                Metric metric, double intensity,
                                double log_step = 1e-4);

/// Elasticities of one metric to all six parameters at an intensity.
struct SensitivityProfile {
  double intensity = 0.0;
  Metric metric = Metric::Performance;
  std::array<double, 6> values{};  ///< indexed as kAllParams

  [[nodiscard]] double operator[](Param p) const noexcept {
    return values[static_cast<std::size_t>(p)];
  }

  /// The parameter with the largest |elasticity| — "what limits me here".
  [[nodiscard]] Param dominant() const noexcept;
};

[[nodiscard]] SensitivityProfile sensitivity_profile(const MachineParams& m,
                                                     Metric metric,
                                                     double intensity);

}  // namespace archline::core
