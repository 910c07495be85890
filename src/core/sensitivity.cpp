#include "core/sensitivity.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/kernels.hpp"

namespace archline::core {

const char* to_string(Param p) noexcept {
  switch (p) {
    case Param::TauFlop: return "tau_flop";
    case Param::EpsFlop: return "eps_flop";
    case Param::TauMem: return "tau_mem";
    case Param::EpsMem: return "eps_mem";
    case Param::Pi1: return "pi1";
    case Param::DeltaPi: return "delta_pi";
  }
  return "?";
}

MachineParams with_param_scaled(const MachineParams& m, Param p,
                                double factor) {
  if (!(factor > 0.0))
    throw std::invalid_argument("with_param_scaled: factor must be > 0");
  MachineParams out = m;
  switch (p) {
    case Param::TauFlop: out.tau_flop *= factor; break;
    case Param::EpsFlop: out.eps_flop *= factor; break;
    case Param::TauMem: out.tau_mem *= factor; break;
    case Param::EpsMem: out.eps_mem *= factor; break;
    case Param::Pi1: out.pi1 *= factor; break;
    case Param::DeltaPi:
      if (!out.uncapped()) out.delta_pi *= factor;
      break;
  }
  return out;
}

double elasticity(const MachineParams& m, Param p, Metric metric,
                  double intensity, double log_step) {
  if (!(log_step > 0.0))
    throw std::invalid_argument("elasticity: log_step must be > 0");
  // pi1 can be zero (no constant power); elasticity to it is then 0.
  if (p == Param::Pi1 && m.pi1 == 0.0) return 0.0;
  if (p == Param::DeltaPi && m.uncapped()) return 0.0;
  const double up = std::exp(log_step);
  const double down = std::exp(-log_step);
  const double hi =
      metric_value(with_param_scaled(m, p, up), metric, intensity);
  const double lo =
      metric_value(with_param_scaled(m, p, down), metric, intensity);
  return (std::log(hi) - std::log(lo)) / (2.0 * log_step);
}

Param SensitivityProfile::dominant() const noexcept {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i)
    if (std::abs(values[i]) > std::abs(values[best])) best = i;
  return kAllParams[best];
}

SensitivityProfile sensitivity_profile(const MachineParams& m, Metric metric,
                                       double intensity) {
  SensitivityProfile s;
  s.intensity = intensity;
  s.metric = metric;
  // Batch shape: the 12 perturbed machines (6 params x up/down, minus
  // the guarded ones) are built first, evaluated in ONE
  // metric_value_machines call, then combined into central differences.
  // Guards and step match elasticity() so the two stay bit-identical
  // (tests/test_kernels.cpp pins this).
  constexpr double kLogStep = 1e-4;  // elasticity()'s default log_step
  const double up = std::exp(kLogStep);
  const double down = std::exp(-kLogStep);
  std::vector<MachineParams> machines;
  machines.reserve(2 * kAllParams.size());
  std::array<bool, kAllParams.size()> guarded{};
  for (std::size_t i = 0; i < kAllParams.size(); ++i) {
    const Param p = kAllParams[i];
    guarded[i] = (p == Param::Pi1 && m.pi1 == 0.0) ||
                 (p == Param::DeltaPi && m.uncapped());
    if (guarded[i]) continue;
    machines.push_back(with_param_scaled(m, p, up));
    machines.push_back(with_param_scaled(m, p, down));
  }
  std::vector<double> values(machines.size());
  metric_value_machines(machines, metric, intensity, values.data());
  std::size_t next = 0;
  for (std::size_t i = 0; i < kAllParams.size(); ++i) {
    if (guarded[i]) {
      s.values[i] = 0.0;
      continue;
    }
    const double hi = values[next++];
    const double lo = values[next++];
    s.values[i] = (std::log(hi) - std::log(lo)) / (2.0 * kLogStep);
  }
  return s;
}

}  // namespace archline::core
