// Tests for core::analysis — the quantities quoted in Fig. 5 annotations
// and the §V-B/§V-C prose.

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/analysis.hpp"
#include "core/units.hpp"
#include "platforms/platform_db.hpp"

namespace {

namespace co = archline::core;
namespace pl = archline::platforms;

TEST(PeakEfficiency, TitanHeadlineNumbers) {
  // Fig. 5 top-left panel: "16 Gflop/J, 1.3 GB/J".
  const co::MachineParams m = pl::platform("GTX Titan").machine();
  EXPECT_NEAR(co::peak_flops_per_joule(m) / 1e9, 16.0, 0.5);
  EXPECT_NEAR(co::peak_bytes_per_joule(m) / 1e9, 1.3, 0.05);
}

TEST(PeakEfficiency, DesktopCpuIsTheLeastEfficient) {
  // Fig. 5 bottom-right: Nehalem at 620 Mflop/J.
  const co::MachineParams m = pl::platform("Desktop CPU").machine();
  EXPECT_NEAR(co::peak_flops_per_joule(m) / 1e6, 620.0, 20.0);
}

TEST(PeakEfficiency, ArndaleGpuBeatsTitanOnMemory) {
  // §V-C: "1.5 Gflop/J on the Arndale GPU vs 1.3 Gflop/J on GTX Titan"
  // (memory-side efficiency, GB/J).
  const double arndale =
      co::peak_bytes_per_joule(pl::platform("Arndale GPU").machine());
  const double titan =
      co::peak_bytes_per_joule(pl::platform("GTX Titan").machine());
  EXPECT_GT(arndale, titan);
  EXPECT_NEAR(arndale / 1e9, 1.5, 0.1);
}

TEST(EffectiveStreamEnergy, PaperV_BWorkedExample) {
  // §V-B: effective energy per streamed byte (eps_mem + pi1 * tau_mem):
  // Arndale GPU 671 pJ/B < GTX Titan 782 pJ/B < Xeon Phi 1.13 nJ/B —
  // the inverse of the raw eps_mem ordering.
  namespace u = archline::units;
  const double phi = co::effective_stream_energy_per_byte(
      pl::platform("Xeon Phi").machine());
  const double titan = co::effective_stream_energy_per_byte(
      pl::platform("GTX Titan").machine());
  const double arndale = co::effective_stream_energy_per_byte(
      pl::platform("Arndale GPU").machine());
  EXPECT_NEAR(u::to_picojoules(phi), 1130.0, 20.0);
  EXPECT_NEAR(u::to_picojoules(titan), 782.0, 10.0);
  EXPECT_NEAR(u::to_picojoules(arndale), 671.0, 10.0);
  EXPECT_LT(arndale, titan);
  EXPECT_LT(titan, phi);
}

TEST(EffectiveStreamEnergy, RawOrderingIsOpposite) {
  const double phi_raw = pl::platform("Xeon Phi").machine().eps_mem;
  const double titan_raw = pl::platform("GTX Titan").machine().eps_mem;
  const double arndale_raw = pl::platform("Arndale GPU").machine().eps_mem;
  EXPECT_LT(phi_raw, titan_raw);
  EXPECT_LT(titan_raw, arndale_raw);
}

TEST(ConstantCharge, MatchesPi1TimesTauMem) {
  const co::MachineParams m = pl::platform("Xeon Phi").machine();
  EXPECT_NEAR(archline::units::to_picojoules(
                  co::constant_energy_per_byte(m)),
              994.0, 15.0);  // 180 W / 181 GB/s
}

TEST(ConstantPowerFraction, OverHalfOnSevenPlatforms) {
  // §V-C: pi1/(pi1+delta_pi) > 50% on 7 of the 12 platforms.
  int over_half = 0;
  for (const pl::PlatformSpec& spec : pl::all_platforms())
    if (co::constant_power_fraction(spec.machine()) > 0.5) ++over_half;
  EXPECT_EQ(over_half, 7);
}

TEST(ConstantPowerFraction, ArndaleGpuIsLow) {
  const double f =
      co::constant_power_fraction(pl::platform("Arndale GPU").machine());
  EXPECT_LT(f, 0.25);  // 1.28 / (1.28 + 4.83) ~ 0.21
}

TEST(PowerReduction, AlwaysLessThanDivisor) {
  for (const pl::PlatformSpec& spec : pl::all_platforms()) {
    const double r = co::power_reduction_factor(spec.machine(), 8.0);
    EXPECT_LT(r, 8.0) << spec.name;
    EXPECT_GT(r, 1.0) << spec.name;
  }
}

TEST(PowerReduction, ArndaleGpuHasMostHeadroom) {
  // Fig. 6: "the Arndale GPU has the most potential to reduce system
  // power by reducing delta_pi".
  double arndale = 0.0;
  double best_other = 0.0;
  for (const pl::PlatformSpec& spec : pl::all_platforms()) {
    const double r = co::power_reduction_factor(spec.machine(), 8.0);
    if (spec.name == "Arndale GPU") arndale = r;
    else best_other = std::max(best_other, r);
  }
  EXPECT_GT(arndale, best_other);
}

TEST(PowerReduction, UncappedThrows) {
  EXPECT_THROW((void)co::power_reduction_factor(
                   pl::platform("GTX Titan").machine().without_cap(), 2.0),
               std::invalid_argument);
}

TEST(SummarizeEfficiency, FieldsConsistent) {
  const co::MachineParams m = pl::platform("GTX 680").machine();
  const co::EfficiencySummary s = co::summarize_efficiency(m);
  EXPECT_DOUBLE_EQ(s.sustained_flops, m.peak_flops());
  EXPECT_DOUBLE_EQ(s.sustained_bandwidth, m.peak_bandwidth());
  EXPECT_DOUBLE_EQ(s.pi1, m.pi1);
  EXPECT_LE(s.balance_lo, s.balance);
  EXPECT_LE(s.balance, s.balance_hi);
  EXPECT_GT(s.constant_fraction, 0.0);
  EXPECT_LT(s.constant_fraction, 1.0);
}

TEST(IntensityGrid, EndpointsIncluded) {
  const auto grid = co::intensity_grid(0.125, 512.0, 2);
  EXPECT_DOUBLE_EQ(grid.front(), 0.125);
  EXPECT_NEAR(grid.back(), 512.0, 1e-9);
}

TEST(IntensityGrid, Log2Spacing) {
  const auto grid = co::intensity_grid(1.0, 4.0, 1);
  ASSERT_EQ(grid.size(), 3u);
  EXPECT_DOUBLE_EQ(grid[0], 1.0);
  EXPECT_DOUBLE_EQ(grid[1], 2.0);
  EXPECT_DOUBLE_EQ(grid[2], 4.0);
}

TEST(IntensityGrid, PointsPerOctave) {
  const auto grid = co::intensity_grid(1.0, 2.0, 4);
  EXPECT_EQ(grid.size(), 5u);
}

TEST(IntensityGrid, BadArgumentsThrow) {
  EXPECT_THROW((void)co::intensity_grid(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)co::intensity_grid(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)co::intensity_grid(1.0, 2.0, 0), std::invalid_argument);
}

}  // namespace
