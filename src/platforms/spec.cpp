#include "platforms/spec.hpp"

#include <cmath>
#include <stdexcept>

namespace archline::platforms {

const char* to_string(DeviceClass c) noexcept {
  switch (c) {
    case DeviceClass::ServerCpu: return "server CPU";
    case DeviceClass::MobileCpu: return "mobile CPU";
    case DeviceClass::DesktopGpu: return "desktop GPU";
    case DeviceClass::MobileGpu: return "mobile GPU";
    case DeviceClass::Manycore: return "manycore";
  }
  return "?";
}

double PlatformSpec::sustained_flop_fraction(core::Precision p) const {
  if (p == core::Precision::Single)
    return flop_sp.throughput / peak_sp_flops;
  if (!flop_dp)
    throw std::invalid_argument(name + ": no double-precision support");
  return flop_dp->throughput / peak_dp_flops;
}

double PlatformSpec::sustained_bandwidth_fraction() const {
  return mem_stream.throughput / peak_bandwidth;
}

core::MachineParams PlatformSpec::machine(core::Precision p) const {
  const EnergyPoint& fp = [&]() -> const EnergyPoint& {
    if (p == core::Precision::Single) return flop_sp;
    if (!flop_dp)
      throw std::invalid_argument(name + ": no double-precision support");
    return *flop_dp;
  }();
  core::MachineParams m;
  m.tau_flop = 1.0 / fp.throughput;
  m.eps_flop = fp.energy_per_op;
  m.tau_mem = 1.0 / mem_stream.throughput;
  m.eps_mem = mem_stream.energy_per_op;
  m.pi1 = pi1;
  m.delta_pi = delta_pi;
  m.validate(name);
  return m;
}

bool PlatformSpec::has_level(core::MemLevel level) const noexcept {
  switch (level) {
    case core::MemLevel::L1: return mem_l1.has_value();
    case core::MemLevel::L2: return mem_l2.has_value();
    case core::MemLevel::DRAM: return true;
  }
  return false;
}

const EnergyPoint& PlatformSpec::level_point(core::MemLevel level) const {
  switch (level) {
    case core::MemLevel::L1:
      if (mem_l1) return *mem_l1;
      break;
    case core::MemLevel::L2:
      if (mem_l2) return *mem_l2;
      break;
    case core::MemLevel::DRAM:
      return mem_stream;
  }
  throw std::invalid_argument(name + ": level " +
                              std::string(core::to_string(level)) +
                              " not measured");
}

core::MachineParams PlatformSpec::machine_at_level(core::MemLevel level,
                                                   core::Precision p) const {
  core::MachineParams m = machine(p);
  const EnergyPoint& pt = level_point(level);
  m.tau_mem = 1.0 / pt.throughput;
  m.eps_mem = pt.energy_per_op;
  m.validate(name + "@" + core::to_string(level));
  return m;
}

const EnergyPoint& PlatformSpec::random_access() const {
  if (!mem_rand)
    throw std::invalid_argument(name + ": random access not measured");
  return *mem_rand;
}

core::RandomAccessMachine PlatformSpec::random_machine() const {
  const EnergyPoint& pt = random_access();
  core::RandomAccessMachine m;
  m.tau_access = 1.0 / pt.throughput;
  m.eps_access = pt.energy_per_op;
  m.pi1 = pi1;
  m.delta_pi = delta_pi;
  m.validate();
  return m;
}

void PlatformSpec::validate() const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument(name + ": " + what);
  };
  const auto check_point = [&fail](const EnergyPoint& pt, const char* label) {
    if (!(pt.energy_per_op > 0.0) || !std::isfinite(pt.energy_per_op))
      fail(std::string(label) + ": energy must be positive");
    if (!(pt.throughput > 0.0) || !std::isfinite(pt.throughput))
      fail(std::string(label) + ": throughput must be positive");
  };
  if (name.empty()) fail("empty name");
  if (!(peak_sp_flops > 0.0)) fail("missing single-precision peak");
  if (!(peak_bandwidth > 0.0)) fail("missing bandwidth peak");
  if (!(pi1 > 0.0)) fail("pi1 must be positive");
  if (!(delta_pi > 0.0)) fail("delta_pi must be positive");
  check_point(flop_sp, "flop_sp");
  check_point(mem_stream, "mem_stream");
  if (flop_dp) {
    check_point(*flop_dp, "flop_dp");
    if (!(peak_dp_flops > 0.0)) fail("dp energy given but no dp peak");
  }
  if (mem_l1) check_point(*mem_l1, "mem_l1");
  if (mem_l2) check_point(*mem_l2, "mem_l2");
  if (mem_rand) check_point(*mem_rand, "mem_rand");

  // Paper §V-B sanity property: eps_L1 <= eps_L2 <= eps_mem (inclusive
  // costs grow as data moves farther out), on every platform in Table I.
  if (mem_l1 && mem_l2 &&
      mem_l1->energy_per_op > mem_l2->energy_per_op)
    fail("eps_L1 > eps_L2 violates inclusive-cost ordering");
  if (mem_l2 && mem_l2->energy_per_op > mem_stream.energy_per_op)
    fail("eps_L2 > eps_mem violates inclusive-cost ordering");
  if (mem_l1 && mem_l1->energy_per_op > mem_stream.energy_per_op)
    fail("eps_L1 > eps_mem violates inclusive-cost ordering");

  // Sustained peaks cannot exceed claims (allow 1% measurement slack).
  if (flop_sp.throughput > peak_sp_flops * 1.01)
    fail("sustained SP flops exceed vendor claim");
  if (flop_dp && flop_dp->throughput > peak_dp_flops * 1.01)
    fail("sustained DP flops exceed vendor claim");
  if (mem_stream.throughput > peak_bandwidth * 1.01)
    fail("sustained bandwidth exceeds vendor claim");

  // The ladder (when present) must be internally consistent and end at
  // the nominal 1.0x state Table I was measured at.
  if (!operating_points.empty()) {
    try {
      operating_points.validate();
    } catch (const std::exception& e) {
      fail(e.what());
    }
    if (operating_points.nominal().freq_scale != 1.0)
      fail("operating-point ladder must end at the nominal 1.0x state");
  }
}

core::OperatingPointTable default_operating_points(DeviceClass c, double pi1,
                                                   double idle_power) {
  // Per-class ladder shape: frequency scales and the leakage fraction
  // L of the dynamic-energy model. Mobile parts reach deeper floors
  // (wide DVFS ranges), desktop GPUs and the Phi idle hot and shallow.
  struct ClassLadder {
    double scales[4];
    double leakage;
  };
  const ClassLadder ladder = [&]() -> ClassLadder {
    switch (c) {
      case DeviceClass::ServerCpu:
        return {{0.50, 0.70, 0.85, 1.0}, 0.30};
      case DeviceClass::MobileCpu:
        return {{0.40, 0.60, 0.80, 1.0}, 0.20};
      case DeviceClass::DesktopGpu:
        return {{0.55, 0.70, 0.85, 1.0}, 0.35};
      case DeviceClass::MobileGpu:
        return {{0.35, 0.55, 0.80, 1.0}, 0.25};
      case DeviceClass::Manycore:
        return {{0.60, 0.75, 0.90, 1.0}, 0.40};
    }
    return {{0.50, 0.70, 0.85, 1.0}, 0.30};
  }();

  // DRAM keeps its own clock on every class; the floor is the ladder's
  // lowest point.
  const core::DvfsModel model{.leakage_fraction = ladder.leakage,
                              .scale_memory = false,
                              .min_scale = ladder.scales[0]};
  core::OperatingPointTable table;
  table.points.reserve(4);
  for (double s : ladder.scales) {
    core::OperatingPoint p = core::dvfs_operating_point(model, s);
    // Constant/idle power: the leakage share tracks V^2, the rest does
    // not — pi(s) = pi * ((1 - L) + L s^2). Nominal inherits exactly.
    const double power_scale = (1.0 - ladder.leakage) + ladder.leakage * s * s;
    p.pi1_watts = s == 1.0 ? -1.0 : pi1 * power_scale;
    p.idle_watts = idle_power * power_scale;
    table.points.push_back(std::move(p));
  }
  table.validate();
  return table;
}

}  // namespace archline::platforms
