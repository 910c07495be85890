#pragma once
// PlatformSpec: one row of the paper's Table I.
//
// A spec records both the vendor-claimed peaks (columns 3-5) and the
// empirically fitted constants (columns 6-13) with their sustained
// throughputs. Converters produce core::MachineParams for any precision /
// memory level / access pattern, which is how the rest of the library
// consumes a platform.

#include <cstddef>
#include <optional>
#include <string>

#include "core/machine_params.hpp"
#include "core/memory.hpp"
#include "core/operating_point.hpp"
#include "core/random_model.hpp"

namespace archline::platforms {

/// Broad device class; drives simulator nonideality defaults and the
/// tuning-search configuration space.
enum class DeviceClass {
  ServerCpu,
  MobileCpu,
  DesktopGpu,
  MobileGpu,
  Manycore,  ///< Xeon Phi
};

[[nodiscard]] const char* to_string(DeviceClass c) noexcept;

/// An energy cost constant paired with the sustained throughput at which it
/// was measured (the parenthetical values of Table I columns 8-13).
struct EnergyPoint {
  double energy_per_op = 0.0;  ///< J per flop / byte / access
  double throughput = 0.0;     ///< sustained ops per second
};

/// One of the paper's twelve evaluation platforms.
struct PlatformSpec {
  std::string name;        ///< e.g. "GTX Titan"
  std::string processor;   ///< e.g. "NVIDIA GK110 (Kepler)"
  int process_nm = 0;      ///< lithography node, 0 if unknown
  DeviceClass device_class = DeviceClass::ServerCpu;

  // Vendor's claimed peaks (Table I columns 3-5), SI units.
  double peak_sp_flops = 0.0;  ///< flop/s, single precision
  double peak_dp_flops = 0.0;  ///< flop/s, double precision; 0 if absent
  double peak_bandwidth = 0.0; ///< B/s

  // Empirical power (columns 6-7).
  double pi1 = 0.0;            ///< fitted constant power [W]
  double idle_power = 0.0;     ///< observed idle power [W]
  double delta_pi = 0.0;       ///< fitted usable power cap [W]
  bool pi1_below_idle = false; ///< Table I note 1: fitted pi1 < idle ("*")

  // Energy constants and sustained throughputs (columns 8-13).
  EnergyPoint flop_sp;                  ///< eps_s
  std::optional<EnergyPoint> flop_dp;   ///< eps_d; absent on some GPUs
  EnergyPoint mem_stream;               ///< eps_mem (DRAM streaming)
  std::optional<EnergyPoint> mem_l1;    ///< eps_L1 (or scratchpad)
  std::optional<EnergyPoint> mem_l2;    ///< eps_L2
  std::optional<EnergyPoint> mem_rand;  ///< eps_rand, per *access*

  /// Fig. 4 ground truth: did the paper's K-S test mark this platform "**"
  /// (capped vs uncapped error distributions differ at p < .05)?
  bool ks_significant_in_paper = false;

  /// The platform's DVFS ladder, ascending freq_scale with the nominal
  /// (1.0x) state last. Table I measures only the nominal point, so the
  /// ladder is synthesized per device class from the fitted pi1 /
  /// idle_power constants (default_operating_points); an empty table is
  /// legal for hand-built specs and means "nominal only".
  core::OperatingPointTable operating_points;

  // ---- Derived views ------------------------------------------------

  [[nodiscard]] bool has_double() const noexcept {
    return flop_dp.has_value();
  }

  /// Sustained fraction of the vendor peak ("[81%]" in Fig. 5).
  [[nodiscard]] double sustained_flop_fraction(
      core::Precision p = core::Precision::Single) const;
  [[nodiscard]] double sustained_bandwidth_fraction() const;

  /// MachineParams at the DRAM level for the given precision, with the
  /// fitted cap. Throws if the precision is unsupported on this platform.
  [[nodiscard]] core::MachineParams machine(
      core::Precision p = core::Precision::Single) const;

  /// MachineParams whose memory side is the given cache level. Throws if
  /// that level was not measured on this platform.
  [[nodiscard]] core::MachineParams machine_at_level(
      core::MemLevel level, core::Precision p = core::Precision::Single) const;

  /// The energy point for a memory level; throws if absent.
  [[nodiscard]] const EnergyPoint& level_point(core::MemLevel level) const;
  [[nodiscard]] bool has_level(core::MemLevel level) const noexcept;

  /// Random-access cost per access [J] and sustained accesses/s.
  [[nodiscard]] const EnergyPoint& random_access() const;
  [[nodiscard]] bool has_random_access() const noexcept {
    return mem_rand.has_value();
  }

  /// Random-access machine (pointer-chase costs + this platform's power
  /// context). Throws if random access was not measured.
  [[nodiscard]] core::RandomAccessMachine random_machine() const;

  /// Checks internal consistency (positive costs, eps_L1 <= eps_L2 <=
  /// eps_mem where present, sustained <= claimed peak with small slack,
  /// a valid operating-point ladder when one is present).
  void validate() const;
};

/// The synthesized DVFS ladder for a device class: four points whose
/// frequency span, leakage fraction, and count reflect typical governor
/// tables for the class. Per point, the constant and idle powers follow
/// the mild voltage-tracking model pi(s) = pi * ((1 - L) + L s^2) — the
/// leakage share of the constant power scales with V^2, the rest (DRAM
/// refresh, VRMs, fans) does not. The nominal point inherits pi1
/// exactly, so every existing nominal-point prediction is unchanged.
[[nodiscard]] core::OperatingPointTable default_operating_points(
    DeviceClass c, double pi1, double idle_power);

}  // namespace archline::platforms
