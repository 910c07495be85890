#include "core/roofline.hpp"

#include <algorithm>
#include <cmath>

namespace archline::core {

const char* regime_name(Regime r) noexcept {
  switch (r) {
    case Regime::Compute: return "compute";
    case Regime::Memory: return "memory";
    case Regime::PowerCap: return "power-cap";
  }
  return "?";
}

char regime_letter(Regime r) noexcept {
  switch (r) {
    case Regime::Compute: return 'F';
    case Regime::Memory: return 'M';
    case Regime::PowerCap: return 'C';
  }
  return '?';
}

double energy(const MachineParams& m, const Workload& w) noexcept {
  return w.flops * m.eps_flop + w.bytes * m.eps_mem + m.pi1 * time(m, w);
}

double avg_power(const MachineParams& m, const Workload& w) noexcept {
  const double t = time(m, w);
  if (t <= 0.0) return m.pi1;
  return energy(m, w) / t;
}

Regime regime(const MachineParams& m, const Workload& w) noexcept {
  const double t_flop = w.flops * m.tau_flop;
  const double t_mem = w.bytes * m.tau_mem;
  const double t_cap =
      m.uncapped() ? 0.0
                   : (w.flops * m.eps_flop + w.bytes * m.eps_mem) / m.delta_pi;
  const double t = std::max({t_flop, t_mem, t_cap});
  if (t_cap == t && !m.uncapped()) return Regime::PowerCap;
  if (t_mem == t) return Regime::Memory;
  return Regime::Compute;
}

double time_per_flop(const MachineParams& m, double intensity) noexcept {
  const double free_term = std::max(1.0, m.time_balance() / intensity);
  if (m.uncapped()) return m.tau_flop * free_term;
  const double cap_term = (m.pi_flop() / m.delta_pi) *
                          (1.0 + m.energy_balance() / intensity);
  return m.tau_flop * std::max(free_term, cap_term);
}

double energy_per_flop(const MachineParams& m, double intensity) noexcept {
  return m.eps_flop * (1.0 + m.energy_balance() / intensity) +
         m.pi1 * time_per_flop(m, intensity);
}

double performance(const MachineParams& m, double intensity) noexcept {
  return 1.0 / time_per_flop(m, intensity);
}

double energy_efficiency(const MachineParams& m, double intensity) noexcept {
  return 1.0 / energy_per_flop(m, intensity);
}

double bandwidth(const MachineParams& m, double intensity) noexcept {
  // Q/T = (W/I)/T = performance / I.
  return performance(m, intensity) / intensity;
}

double avg_power_closed_form(const MachineParams& m,
                             double intensity) noexcept {
  const double b_hi = m.balance_hi();
  const double b_lo = m.balance_lo();
  if (intensity >= b_hi)
    return m.pi1 + m.pi_flop() + m.pi_mem() * m.time_balance() / intensity;
  if (intensity <= b_lo)
    return m.pi1 + m.pi_flop() * intensity / m.time_balance() + m.pi_mem();
  return m.pi1 + m.delta_pi;
}

Regime regime_at(const MachineParams& m, double intensity) noexcept {
  return regime(m, Workload::from_intensity(1.0, intensity));
}

double metric_value(const MachineParams& m, Metric metric,
                    double intensity) noexcept {
  switch (metric) {
    case Metric::Performance: return performance(m, intensity);
    case Metric::EnergyEfficiency: return energy_efficiency(m, intensity);
    case Metric::Power: return avg_power_closed_form(m, intensity);
  }
  return 0.0;
}

double crossover_intensity(const MachineParams& a, const MachineParams& b,
                           Metric metric, double lo, double hi) {
  const auto gap = [&](double intensity) {
    return std::log(metric_value(a, metric, intensity)) -
           std::log(metric_value(b, metric, intensity));
  };
  double glo = gap(lo);
  double ghi = gap(hi);
  if (glo == 0.0) return lo;
  if (ghi == 0.0) return hi;
  if ((glo > 0.0) == (ghi > 0.0)) return -1.0;  // no sign change in bracket
  double llo = std::log2(lo);
  double lhi = std::log2(hi);
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = 0.5 * (llo + lhi);
    const double gm = gap(std::exp2(mid));
    if (gm == 0.0) return std::exp2(mid);
    if ((gm > 0.0) == (glo > 0.0)) {
      llo = mid;
      glo = gm;
    } else {
      lhi = mid;
    }
    if (lhi - llo < 1e-12) break;
  }
  return std::exp2(0.5 * (llo + lhi));
}

}  // namespace archline::core
