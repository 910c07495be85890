// Tests for the operating-point layer: point/table validation, the
// apply transform, the continuous DvfsModel generator, and the
// per-platform default tables.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/operating_point.hpp"
#include "core/roofline.hpp"
#include "platforms/platform_db.hpp"
#include "platforms/spec.hpp"
#include "stats/rng.hpp"

namespace {

namespace co = archline::core;
namespace pl = archline::platforms;

co::MachineParams titan() { return pl::platform("GTX Titan").machine(); }

co::OperatingPoint point(double s, double e) {
  co::OperatingPoint p;
  p.label = "test";
  p.freq_scale = s;
  p.energy_scale = e;
  return p;
}

TEST(OperatingPoint, ValidationRules) {
  EXPECT_NO_THROW(point(0.5, 0.5).validate());
  EXPECT_THROW(point(0.0, 0.5).validate(), std::invalid_argument);
  EXPECT_THROW(point(-1.0, 0.5).validate(), std::invalid_argument);
  EXPECT_THROW(point(0.5, 0.0).validate(), std::invalid_argument);
  co::OperatingPoint p = point(0.5, 0.5);
  p.idle_watts = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = point(0.5, 0.5);
  p.freq_scale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(p.validate(), std::invalid_argument);
  // Turbo states (> 1) are legal.
  EXPECT_NO_THROW(point(1.25, 1.4).validate());
}

TEST(OperatingPoint, EnergyScaleModel) {
  EXPECT_DOUBLE_EQ(co::dvfs_energy_scale(0.3, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(co::dvfs_energy_scale(0.3, 0.5), 0.3 + 0.7 * 0.25);
  EXPECT_DOUBLE_EQ(co::dvfs_energy_scale(0.0, 0.5), 0.25);
}

TEST(ApplyOperatingPoint, UnitPointIsIdentity) {
  const co::MachineParams m = titan();
  const co::MachineParams s = co::apply_operating_point(m, point(1.0, 1.0));
  EXPECT_DOUBLE_EQ(s.tau_flop, m.tau_flop);
  EXPECT_DOUBLE_EQ(s.eps_flop, m.eps_flop);
  EXPECT_DOUBLE_EQ(s.tau_mem, m.tau_mem);
  EXPECT_DOUBLE_EQ(s.eps_mem, m.eps_mem);
  EXPECT_DOUBLE_EQ(s.pi1, m.pi1);
  EXPECT_DOUBLE_EQ(s.delta_pi, m.delta_pi);
}

TEST(ApplyOperatingPoint, ScalesTimesAndDynamicEnergy) {
  const co::MachineParams m = titan();
  const co::MachineParams s = co::apply_operating_point(m, point(0.5, 0.475));
  EXPECT_DOUBLE_EQ(s.peak_flops(), 0.5 * m.peak_flops());
  EXPECT_DOUBLE_EQ(s.eps_flop, 0.475 * m.eps_flop);
  // Memory domain untouched unless the point opts in.
  EXPECT_DOUBLE_EQ(s.tau_mem, m.tau_mem);
  EXPECT_DOUBLE_EQ(s.eps_mem, m.eps_mem);
}

TEST(ApplyOperatingPoint, MemoryDomainOptIn) {
  co::OperatingPoint p = point(0.5, 0.475);
  p.scale_memory = true;
  const co::MachineParams s = co::apply_operating_point(titan(), p);
  EXPECT_DOUBLE_EQ(s.peak_bandwidth(), 0.5 * titan().peak_bandwidth());
  EXPECT_DOUBLE_EQ(s.eps_mem, 0.475 * titan().eps_mem);
}

TEST(ApplyOperatingPoint, Pi1InheritVsOverride) {
  const co::MachineParams m = titan();
  co::OperatingPoint p = point(0.7, 0.8);
  EXPECT_DOUBLE_EQ(co::apply_operating_point(m, p).pi1, m.pi1);  // inherit
  p.pi1_watts = 12.5;
  EXPECT_DOUBLE_EQ(co::apply_operating_point(m, p).pi1, 12.5);
  // delta_pi is an external limit, never a P-state property.
  EXPECT_DOUBLE_EQ(co::apply_operating_point(m, p).delta_pi, m.delta_pi);
}

TEST(DvfsOperatingPoint, RejectsOutOfRangeScale) {
  const co::DvfsModel model;
  EXPECT_THROW((void)co::dvfs_operating_point(model, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)co::dvfs_operating_point(model, 1.1),
               std::invalid_argument);
}

co::DvfsModel model() {
  return co::DvfsModel{.leakage_fraction = 0.3, .scale_memory = false,
                       .min_scale = 0.2};
}

TEST(DvfsModel, ValidationRules) {
  co::DvfsModel m = model();
  EXPECT_NO_THROW(m.validate());
  m.leakage_fraction = 1.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = model();
  m.min_scale = 0.0;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = model();
  m.min_scale = 1.5;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(ApplyDvfs, UnitScaleIsIdentity) {
  const co::MachineParams m = titan();
  const co::MachineParams s =
      co::apply_operating_point(m, co::dvfs_operating_point(model(), 1.0));
  EXPECT_DOUBLE_EQ(s.tau_flop, m.tau_flop);
  EXPECT_DOUBLE_EQ(s.eps_flop, m.eps_flop);
  EXPECT_DOUBLE_EQ(s.tau_mem, m.tau_mem);
}

TEST(ApplyDvfs, HalfClockHalvesFlopRate) {
  const co::MachineParams m = titan();
  const co::MachineParams s =
      co::apply_operating_point(m, co::dvfs_operating_point(model(), 0.5));
  EXPECT_DOUBLE_EQ(s.peak_flops(), 0.5 * m.peak_flops());
  // Dynamic energy at s=0.5: 0.3 + 0.7 * 0.25 = 0.475 of original.
  EXPECT_NEAR(s.eps_flop, 0.475 * m.eps_flop, 1e-18);
}

TEST(ApplyDvfs, MemoryUntouchedByDefault) {
  const co::MachineParams s = co::apply_operating_point(
      titan(), co::dvfs_operating_point(model(), 0.5));
  EXPECT_DOUBLE_EQ(s.tau_mem, titan().tau_mem);
  EXPECT_DOUBLE_EQ(s.eps_mem, titan().eps_mem);
}

TEST(ApplyDvfs, MemoryScalesWhenRequested) {
  co::DvfsModel m = model();
  m.scale_memory = true;
  const co::MachineParams s =
      co::apply_operating_point(titan(), co::dvfs_operating_point(m, 0.5));
  EXPECT_DOUBLE_EQ(s.peak_bandwidth(), 0.5 * titan().peak_bandwidth());
}

TEST(ApplyDvfs, ConstantPowerUnchanged) {
  const co::MachineParams s = co::apply_operating_point(
      titan(), co::dvfs_operating_point(model(), 0.4));
  EXPECT_DOUBLE_EQ(s.pi1, titan().pi1);
  EXPECT_DOUBLE_EQ(s.delta_pi, titan().delta_pi);
}

TEST(ApplyDvfs, ScaleOutOfRangeThrows) {
  EXPECT_THROW((void)co::apply_operating_point(
                   titan(), co::dvfs_operating_point(model(), 0.1)),
               std::invalid_argument);
  EXPECT_THROW((void)co::apply_operating_point(
                   titan(), co::dvfs_operating_point(model(), 1.1)),
               std::invalid_argument);
}

TEST(OperatingPointTable, ValidationAndParkWatts) {
  co::OperatingPointTable t;
  EXPECT_THROW(t.validate(), std::invalid_argument);  // empty
  EXPECT_DOUBLE_EQ(t.park_watts(), 0.0);
  t.points = {point(0.5, 0.4), point(1.0, 1.0)};
  t.points[0].idle_watts = 3.0;
  t.points[1].idle_watts = 7.0;
  EXPECT_NO_THROW(t.validate());
  EXPECT_DOUBLE_EQ(t.park_watts(), 3.0);
  EXPECT_DOUBLE_EQ(t.nominal().freq_scale, 1.0);
  // Non-ascending freq_scale is rejected.
  std::swap(t.points[0], t.points[1]);
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t.points[0] = t.points[1];
  EXPECT_THROW(t.validate(), std::invalid_argument);  // equal scales
}

TEST(OperatingPointTable, SinglePointLadder) {
  co::OperatingPointTable t;
  t.points = {point(1.0, 1.0)};
  t.points[0].idle_watts = 4.5;
  t.points[0].pi1_watts = 11.0;
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.size(), 1u);
  // With one point it is simultaneously the nominal state and the
  // deepest park state.
  EXPECT_DOUBLE_EQ(t.nominal().freq_scale, 1.0);
  EXPECT_DOUBLE_EQ(t.park_watts(), 4.5);
  const std::vector<co::MachineParams> ms =
      co::machines_at_points(titan(), t.points);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_DOUBLE_EQ(ms[0].pi1, 11.0);
}

TEST(OperatingPointTable, DuplicateFrequencyScalesRejectedAnywhere) {
  // A duplicate anywhere in the ladder — not just adjacent to the
  // front — must fail strict-ascent validation, even when every point
  // is individually valid.
  for (std::size_t dup = 1; dup < 4; ++dup) {
    co::OperatingPointTable t;
    t.points = {point(0.25, 0.2), point(0.5, 0.4), point(0.75, 0.7),
                point(1.0, 1.0)};
    t.points[dup].freq_scale = t.points[dup - 1].freq_scale;
    EXPECT_THROW(t.validate(), std::invalid_argument) << "dup at " << dup;
  }
}

TEST(OperatingPointTable, ParkWattsIgnoresPi1Overrides) {
  // park_watts is the deepest *idle* power; the running constant power
  // pi1 — overridden or inherited — must not leak into it.
  co::OperatingPointTable t;
  t.points = {point(0.5, 0.4), point(0.75, 0.7), point(1.0, 1.0)};
  t.points[0].idle_watts = 6.0;
  t.points[0].pi1_watts = 1.0;  // running power below every idle_watts
  t.points[1].idle_watts = 2.0;
  t.points[1].pi1_watts = 40.0;
  t.points[2].idle_watts = 9.0;
  t.points[2].pi1_watts = -1.0;  // inherit
  EXPECT_NO_THROW(t.validate());
  EXPECT_DOUBLE_EQ(t.park_watts(), 2.0);
  // The overrides still reach the per-point machines.
  const co::MachineParams base = titan();
  const std::vector<co::MachineParams> ms =
      co::machines_at_points(base, t.points);
  EXPECT_DOUBLE_EQ(ms[0].pi1, 1.0);
  EXPECT_DOUBLE_EQ(ms[1].pi1, 40.0);
  EXPECT_DOUBLE_EQ(ms[2].pi1, base.pi1);
}

TEST(OperatingPointTable, ParkWattsPropertyOnRandomLadders) {
  // Property, over seeded random ladders mixing pi1 overrides and
  // inherits: validate() accepts strictly ascending scales, park_watts
  // equals the minimum idle_watts, nominal() is the fastest point, and
  // breaking the ascent anywhere is rejected.
  archline::stats::Rng rng(2026, 5);
  for (int trial = 0; trial < 50; ++trial) {
    const int n = 1 + static_cast<int>(rng.below(8));
    co::OperatingPointTable t;
    double scale = 0.0;
    double min_idle = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      scale += 0.05 + rng.uniform(0.0, 0.45);  // strictly ascending
      co::OperatingPoint p = point(scale, rng.uniform(0.1, 1.5));
      p.idle_watts = rng.uniform(0.0, 20.0);
      p.pi1_watts = rng.uniform() < 0.5 ? -1.0 : rng.uniform(0.5, 50.0);
      min_idle = std::min(min_idle, p.idle_watts);
      t.points.push_back(p);
    }
    ASSERT_NO_THROW(t.validate()) << "trial " << trial;
    EXPECT_DOUBLE_EQ(t.park_watts(), min_idle) << "trial " << trial;
    EXPECT_DOUBLE_EQ(t.nominal().freq_scale, scale) << "trial " << trial;
    if (n >= 2) {
      const std::size_t at = 1 + rng.below(static_cast<std::uint64_t>(n - 1));
      co::OperatingPointTable broken = t;
      broken.points[at].freq_scale = broken.points[at - 1].freq_scale;
      EXPECT_THROW(broken.validate(), std::invalid_argument)
          << "trial " << trial << " flat at " << at;
      broken.points[at].freq_scale = broken.points[at - 1].freq_scale - 0.01;
      EXPECT_THROW(broken.validate(), std::invalid_argument)
          << "trial " << trial << " descent at " << at;
    }
  }
}

TEST(MachinesAtPoints, TableOrderAndValues) {
  const co::MachineParams m = titan();
  const std::vector<co::OperatingPoint> pts = {point(0.5, 0.4),
                                               point(1.0, 1.0)};
  const std::vector<co::MachineParams> ms = co::machines_at_points(m, pts);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_DOUBLE_EQ(ms[0].tau_flop, m.tau_flop / 0.5);
  EXPECT_DOUBLE_EQ(ms[0].eps_flop, m.eps_flop * 0.4);
  EXPECT_DOUBLE_EQ(ms[1].tau_flop, m.tau_flop);
}

TEST(DefaultOperatingPoints, EveryPlatformCarriesAValidLadder) {
  for (const pl::PlatformSpec& spec : pl::all_platforms()) {
    const co::OperatingPointTable& t = spec.operating_points;
    ASSERT_FALSE(t.empty()) << spec.name;
    EXPECT_NO_THROW(t.validate()) << spec.name;
    // Nominal point: exactly 1.0x, inheriting the spec's pi1.
    EXPECT_DOUBLE_EQ(t.nominal().freq_scale, 1.0) << spec.name;
    EXPECT_LT(t.nominal().pi1_watts, 0.0) << spec.name;
    EXPECT_DOUBLE_EQ(t.nominal().energy_scale, 1.0) << spec.name;
    // Park power never exceeds the spec's own idle power, and every
    // sub-nominal point runs at reduced constant power.
    EXPECT_LE(t.park_watts(), spec.idle_power + 1e-12) << spec.name;
    for (const co::OperatingPoint& p : t.points) {
      EXPECT_FALSE(p.scale_memory) << spec.name;  // discrete DRAM domain
      if (p.freq_scale < 1.0) {
        EXPECT_GT(p.pi1_watts, 0.0) << spec.name;
        EXPECT_LT(p.pi1_watts, spec.pi1) << spec.name;
        EXPECT_LT(p.energy_scale, 1.0) << spec.name;
      }
    }
  }
}

}  // namespace
