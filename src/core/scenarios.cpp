#include "core/scenarios.hpp"

#include <cmath>
#include <stdexcept>

#include "core/kernels.hpp"

namespace archline::core {

MachineParams with_cap_scaled(const MachineParams& m, double k) {
  if (!(k >= 1.0))
    throw std::invalid_argument("with_cap_scaled: divisor must be >= 1");
  MachineParams out = m;
  if (!m.uncapped()) out.delta_pi = m.delta_pi / k;
  return out;
}

MachineParams with_cap(const MachineParams& m, double delta_pi_watts) {
  if (!(delta_pi_watts > 0.0))
    throw std::invalid_argument("with_cap: cap must be positive");
  MachineParams out = m;
  out.delta_pi = delta_pi_watts;
  return out;
}

MachineParams aggregate(const MachineParams& m, int n) {
  if (n < 1) throw std::invalid_argument("aggregate: need n >= 1");
  const double dn = static_cast<double>(n);
  MachineParams out = m;
  out.tau_flop = m.tau_flop / dn;
  out.tau_mem = m.tau_mem / dn;
  out.pi1 = m.pi1 * dn;
  if (!m.uncapped()) out.delta_pi = m.delta_pi * dn;
  return out;
}

int blocks_to_match_power(const MachineParams& block, double target_watts) {
  if (!(target_watts > 0.0)) return 0;
  const double per_block = block.pi1 + (block.uncapped()
                                            ? block.pi_flop() + block.pi_mem()
                                            : block.delta_pi);
  if (!(per_block > 0.0))
    throw std::invalid_argument("blocks_to_match_power: zero block power");
  return static_cast<int>(std::ceil(target_watts / per_block - 1e-9));
}

std::vector<ThrottlePoint> throttle_sweep(
    const MachineParams& m, const std::vector<double>& intensities,
    const std::vector<double>& cap_divisors) {
  std::vector<ThrottlePoint> out;
  out.reserve(intensities.size() * cap_divisors.size());
  // One batch-kernel call per cap level evaluates the whole intensity
  // grid (bit-identical to the per-point closed forms; kernels.hpp).
  MetricCurve curve;
  for (const double k : cap_divisors) {
    const MachineParams capped = with_cap_scaled(m, k);
    metric_curves(capped, intensities, curve);
    for (std::size_t i = 0; i < intensities.size(); ++i) {
      ThrottlePoint p;
      p.intensity = intensities[i];
      p.cap_divisor = k;
      p.power = curve.power[i];
      p.performance = curve.performance[i];
      p.efficiency = curve.efficiency[i];
      p.regime = curve.regime[i];
      out.push_back(p);
    }
  }
  return out;
}

ThrottleRequirement throttle_requirement(const MachineParams& m,
                                         double intensity,
                                         double cap_watts) {
  if (!(cap_watts > 0.0))
    throw std::invalid_argument("throttle_requirement: cap must be > 0");
  if (!(intensity > 0.0))
    throw std::invalid_argument("throttle_requirement: intensity must be > 0");
  const MachineParams capped = with_cap(m, cap_watts);

  ThrottleRequirement r;
  r.intensity = intensity;
  r.cap_watts = cap_watts;
  r.regime = regime_at(capped, intensity);

  // Free (cap-ignoring) execution: per-flop time tau_flop*max(1, B/I).
  const double free_term = std::max(1.0, m.time_balance() / intensity);
  const double capped_term = time_per_flop(capped, intensity) / m.tau_flop;
  r.slowdown = capped_term / free_term;

  // Under maximal overlap the free schedule runs flops at
  // 1/max(1, B/I) of sustained rate and memory at 1/max(1, I/B);
  // throttling divides both by the slowdown.
  r.flop_rate_fraction = 1.0 / (free_term * r.slowdown);
  r.mem_rate_fraction =
      1.0 / (std::max(1.0, intensity / m.time_balance()) * r.slowdown);
  return r;
}

std::vector<OperatingPointOutcome> operating_point_sweep(
    const MachineParams& base, std::span<const OperatingPoint> points,
    const Workload& w) {
  std::vector<OperatingPointOutcome> out;
  out.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const MachineParams m = apply_operating_point(base, points[i]);
    OperatingPointOutcome o;
    o.point_index = i;
    o.freq_scale = points[i].freq_scale;
    o.time_s = time(m, w);
    o.energy_j = energy(m, w);
    o.avg_power_w = avg_power(m, w);
    o.edp = o.energy_j * o.time_s;
    o.regime = regime(m, w);
    out.push_back(o);
  }
  return out;
}

double dvfs_scale_for_power(const MachineParams& m, const DvfsModel& model,
                            double target_watts) {
  model.validate();
  const auto power_at = [&](double s) {
    return apply_operating_point(m, dvfs_operating_point(model, s))
        .max_power();
  };
  if (m.max_power() <= target_watts) return 1.0;
  if (power_at(model.min_scale) > target_watts)
    throw std::invalid_argument(
        "dvfs_scale_for_power: target unreachable at the voltage floor");
  double lo = model.min_scale;
  double hi = 1.0;
  for (int iter = 0; iter < 100 && hi - lo > 1e-10; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (power_at(mid) > target_watts)
      hi = mid;
    else
      lo = mid;
  }
  return lo;
}

PowerMechanismComparison compare_cap_vs_dvfs(const MachineParams& m,
                                             const DvfsModel& model,
                                             double target_watts,
                                             double intensity) {
  if (!(target_watts > m.pi1))
    throw std::invalid_argument(
        "compare_cap_vs_dvfs: target below constant power");

  PowerMechanismComparison r;
  r.target_watts = target_watts;
  r.intensity = intensity;

  // Mechanism 1: cap. Reduce delta_pi so pi1 + delta_pi == target.
  const MachineParams capped = with_cap(m, target_watts - m.pi1);
  r.cap_performance = performance(capped, intensity);
  r.cap_efficiency = energy_efficiency(capped, intensity);

  // Mechanism 2: DVFS at the largest scale that fits the target.
  r.frequency_scale = dvfs_scale_for_power(m, model, target_watts);
  const MachineParams scaled = apply_operating_point(
      m, dvfs_operating_point(model, r.frequency_scale));
  r.dvfs_performance = performance(scaled, intensity);
  r.dvfs_efficiency = energy_efficiency(scaled, intensity);
  return r;
}

PowerBoundComparison power_bound_comparison(const MachineParams& big,
                                            const MachineParams& small,
                                            double bound_watts,
                                            double intensity) {
  if (!(bound_watts > big.pi1))
    throw std::invalid_argument(
        "power_bound_comparison: bound below big block's constant power");
  PowerBoundComparison r;
  r.bound_watts = bound_watts;

  // Reduce the big block's usable power so pi1 + delta_pi' == bound.
  const double new_cap = bound_watts - big.pi1;
  const double base_cap =
      big.uncapped() ? big.pi_flop() + big.pi_mem() : big.delta_pi;
  r.big_cap_divisor = base_cap / new_cap;
  const MachineParams big_capped = with_cap(big, new_cap);
  r.big_performance = performance(big_capped, intensity);
  r.big_slowdown = r.big_performance / performance(big, intensity);

  r.small_count = blocks_to_match_power(small, bound_watts);
  if (r.small_count > 0) {
    const MachineParams cluster = aggregate(small, r.small_count);
    r.small_performance = performance(cluster, intensity);
    r.speedup = r.small_performance / r.big_performance;
  }
  return r;
}

}  // namespace archline::core
