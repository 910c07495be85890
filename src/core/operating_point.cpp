#include "core/operating_point.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace archline::core {

void OperatingPoint::validate() const {
  if (!(freq_scale > 0.0) || !std::isfinite(freq_scale))
    throw std::invalid_argument(
        "OperatingPoint: freq_scale must be positive and finite");
  if (!(energy_scale > 0.0) || !std::isfinite(energy_scale))
    throw std::invalid_argument(
        "OperatingPoint: energy_scale must be positive and finite");
  if (pi1_watts >= 0.0 && !std::isfinite(pi1_watts))
    throw std::invalid_argument("OperatingPoint: pi1_watts must be finite");
  if (!(idle_watts >= 0.0) || !std::isfinite(idle_watts))
    throw std::invalid_argument(
        "OperatingPoint: idle_watts must be >= 0 and finite");
}

double dvfs_energy_scale(double leakage_fraction, double s) noexcept {
  return leakage_fraction + (1.0 - leakage_fraction) * s * s;
}

void DvfsModel::validate() const {
  if (!(leakage_fraction >= 0.0) || leakage_fraction >= 1.0)
    throw std::invalid_argument("DvfsModel: leakage outside [0, 1)");
  if (!(min_scale > 0.0) || min_scale > 1.0)
    throw std::invalid_argument("DvfsModel: min_scale outside (0, 1]");
}

OperatingPoint dvfs_operating_point(const DvfsModel& model, double s) {
  model.validate();
  if (!(s >= model.min_scale) || s > 1.0)
    throw std::invalid_argument(
        "dvfs_operating_point: scale outside [min_scale, 1]");
  OperatingPoint p;
  char label[32];
  std::snprintf(label, sizeof label, "%.2fx", s);
  p.label = label;
  p.freq_scale = s;
  p.energy_scale = dvfs_energy_scale(model.leakage_fraction, s);
  p.scale_memory = model.scale_memory;
  return p;
}

MachineParams apply_operating_point(const MachineParams& m,
                                    const OperatingPoint& p) {
  p.validate();
  MachineParams out = m;
  out.tau_flop = m.tau_flop / p.freq_scale;
  out.eps_flop = m.eps_flop * p.energy_scale;
  if (p.scale_memory) {
    out.tau_mem = m.tau_mem / p.freq_scale;
    out.eps_mem = m.eps_mem * p.energy_scale;
  }
  if (p.pi1_watts >= 0.0) out.pi1 = p.pi1_watts;
  return out;
}

const OperatingPoint& OperatingPointTable::nominal() const {
  if (points.empty())
    throw std::invalid_argument("OperatingPointTable: empty table");
  return points.back();
}

double OperatingPointTable::park_watts() const noexcept {
  double park = 0.0;
  bool first = true;
  for (const OperatingPoint& p : points) {
    if (first || p.idle_watts < park) park = p.idle_watts;
    first = false;
  }
  return park;
}

void OperatingPointTable::validate() const {
  if (points.empty())
    throw std::invalid_argument("OperatingPointTable: empty table");
  double prev = 0.0;
  for (const OperatingPoint& p : points) {
    p.validate();
    if (!(p.freq_scale > prev))
      throw std::invalid_argument(
          "OperatingPointTable: freq_scale must be strictly increasing");
    prev = p.freq_scale;
  }
}

std::vector<MachineParams> machines_at_points(
    const MachineParams& base, std::span<const OperatingPoint> points) {
  std::vector<MachineParams> machines;
  machines.reserve(points.size());
  for (const OperatingPoint& p : points)
    machines.push_back(apply_operating_point(base, p));
  return machines;
}

}  // namespace archline::core
