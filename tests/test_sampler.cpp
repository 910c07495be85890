// Tests for the simulated PowerMon 2 sampler: rates, derating,
// quantization, determinism, and the streaming mean's bit identity with
// the stored samples.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "microbench/intensity.hpp"
#include "platforms/platform_db.hpp"
#include "powermon/integrator.hpp"
#include "powermon/sampler.hpp"
#include "sim/factory.hpp"

namespace {

namespace pm = archline::powermon;
using archline::stats::Rng;

pm::Capture constant_capture(double watts, double duration,
                             std::size_t rails = 1) {
  pm::PowerTrace t;
  t.add_constant(duration, watts);
  pm::Capture cap;
  for (std::size_t i = 0; i < rails; ++i)
    cap.rails.push_back(
        {.channel = {.name = "rail" + std::to_string(i),
                     .nominal_volts = 12.0},
         .trace = t.scaled(1.0 / static_cast<double>(rails))});
  cap.window_begin = 0.0;
  cap.window_end = duration;
  return cap;
}

/// The sampler as first written: the ADC grid (exp2 included) and the
/// constant voltage are recomputed for every sample. sample() hoists both
/// and must agree with this to the bit, RNG draw order included.
double reference_quantize(double value, int bits, double full_scale) {
  const double levels = std::exp2(bits) - 1.0;
  const double clamped = std::clamp(value, 0.0, full_scale);
  const double code = std::round(clamped / full_scale * levels);
  return code / levels * full_scale;
}

std::vector<std::vector<pm::Sample>> reference_sample(
    const pm::Capture& capture, const pm::SamplerConfig& cfg, Rng& rng) {
  const double dt = 1.0 / pm::effective_rate(cfg, capture.rails.size());
  std::vector<std::vector<pm::Sample>> out;
  for (const pm::Capture::Rail& rail : capture.rails) {
    std::vector<pm::Sample>& xs = out.emplace_back();
    const double volts = rail.channel.nominal_volts;
    for (double t = capture.window_begin; t <= capture.window_end; t += dt) {
      if (cfg.dropout_rate > 0.0 && rng.uniform() < cfg.dropout_rate)
        continue;
      const double jitter =
          rng.uniform(-cfg.timestamp_jitter_s, cfg.timestamp_jitter_s);
      const double true_t =
          std::clamp(t + jitter, capture.window_begin, capture.window_end);
      const double watts = rail.trace.value(true_t);
      const double amps = volts > 0.0 ? watts / volts : 0.0;
      pm::Sample s;
      s.t = t;
      if (cfg.quantize) {
        s.volts = reference_quantize(volts, cfg.adc_bits,
                                     cfg.adc_full_scale_volts);
        s.amps = reference_quantize(amps, cfg.adc_bits,
                                    cfg.adc_full_scale_amps);
      } else {
        s.volts = volts;
        s.amps = amps;
      }
      xs.push_back(s);
    }
  }
  return out;
}

/// A two-rail ramp capture (so every sample reads a different current)
/// whose peak draws `peak_amps` on the 12 V rail.
pm::Capture ramp_capture(double peak_amps) {
  pm::PowerTrace t;
  t.add_point(0.0, 0.0);
  t.add_point(0.3, 12.0 * peak_amps);
  pm::Capture cap;
  cap.rails.push_back({.channel = {.name = "12v", .nominal_volts = 12.0},
                       .trace = t});
  cap.rails.push_back({.channel = {.name = "3v3", .nominal_volts = 3.3},
                       .trace = t.scaled(0.1)});
  cap.window_end = 0.3;
  return cap;
}

void expect_matches_reference(const pm::Capture& cap,
                              const pm::SamplerConfig& cfg) {
  Rng rng(77);
  Rng ref_rng(77);
  const pm::SampledCapture got = pm::sample(cap, cfg, rng);
  const auto want = reference_sample(cap, cfg, ref_rng);
  ASSERT_EQ(got.channels.size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c) {
    const std::vector<pm::Sample>& xs = got.channels[c].samples;
    ASSERT_EQ(xs.size(), want[c].size()) << "channel " << c;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      // Bit equality: EXPECT_EQ on doubles compares with ==.
      EXPECT_EQ(xs[i].t, want[c][i].t) << c << ":" << i;
      EXPECT_EQ(xs[i].volts, want[c][i].volts) << c << ":" << i;
      EXPECT_EQ(xs[i].amps, want[c][i].amps) << c << ":" << i;
    }
  }
  // Both consumed the same draws.
  EXPECT_EQ(rng.uniform(), ref_rng.uniform());
}

TEST(EffectiveRate, FullRateUpToThreeChannels) {
  const pm::SamplerConfig cfg;
  EXPECT_DOUBLE_EQ(pm::effective_rate(cfg, 1), 1024.0);
  EXPECT_DOUBLE_EQ(pm::effective_rate(cfg, 2), 1024.0);
  EXPECT_DOUBLE_EQ(pm::effective_rate(cfg, 3), 1024.0);
}

TEST(EffectiveRate, DeratesBeyondAggregateBudget) {
  const pm::SamplerConfig cfg;
  EXPECT_DOUBLE_EQ(pm::effective_rate(cfg, 4), 768.0);
  EXPECT_DOUBLE_EQ(pm::effective_rate(cfg, 8), 384.0);
}

TEST(EffectiveRate, ZeroChannelsThrows) {
  EXPECT_THROW((void)pm::effective_rate(pm::SamplerConfig{}, 0),
               std::invalid_argument);
}

TEST(Sampler, SampleCountMatchesRateAndWindow) {
  Rng rng(1);
  const auto sampled =
      pm::sample(constant_capture(60.0, 1.0), pm::SamplerConfig{}, rng);
  ASSERT_EQ(sampled.channels.size(), 1u);
  // 1 second at 1024 Hz -> 1025 samples (inclusive endpoints).
  EXPECT_NEAR(static_cast<double>(sampled.channels[0].samples.size()),
              1025.0, 1.0);
  EXPECT_DOUBLE_EQ(sampled.channels[0].effective_hz, 1024.0);
}

TEST(Sampler, ConstantTraceSamplesNearTruth) {
  Rng rng(2);
  const auto sampled =
      pm::sample(constant_capture(60.0, 0.5), pm::SamplerConfig{}, rng);
  for (const pm::Sample& s : sampled.channels[0].samples)
    EXPECT_NEAR(s.watts(), 60.0, 0.2);  // quantization error only
}

TEST(Sampler, QuantizationDisabledIsExact) {
  Rng rng(3);
  pm::SamplerConfig cfg;
  cfg.quantize = false;
  const auto sampled = pm::sample(constant_capture(60.0, 0.5), cfg, rng);
  for (const pm::Sample& s : sampled.channels[0].samples)
    EXPECT_DOUBLE_EQ(s.watts(), 60.0);
}

TEST(Sampler, QuantizationGridIs12Bit) {
  Rng rng(4);
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 0.0;
  const auto sampled = pm::sample(constant_capture(37.7, 0.1), cfg, rng);
  // Voltage reading must land on a 12-bit grid over 26 V.
  const double volts = sampled.channels[0].samples[0].volts;
  const double levels = 4095.0;
  const double code = volts / 26.0 * levels;
  EXPECT_NEAR(code, std::round(code), 1e-9);
}

TEST(Sampler, TooManyRailsThrows) {
  Rng rng(5);
  EXPECT_THROW(
      (void)pm::sample(constant_capture(10.0, 0.1, 9), pm::SamplerConfig{},
                       rng),
      std::invalid_argument);
}

TEST(Sampler, EmptyWindowThrows) {
  Rng rng(6);
  pm::Capture cap = constant_capture(10.0, 1.0);
  cap.window_end = cap.window_begin;
  EXPECT_THROW((void)pm::sample(cap, pm::SamplerConfig{}, rng),
               std::invalid_argument);
}

TEST(Sampler, NoRailsThrows) {
  Rng rng(7);
  pm::Capture cap;
  cap.window_end = 1.0;
  EXPECT_THROW((void)pm::sample(cap, pm::SamplerConfig{}, rng),
               std::invalid_argument);
}

TEST(Sampler, DeterministicGivenSeed) {
  Rng rng1(42);
  Rng rng2(42);
  const auto a =
      pm::sample(constant_capture(33.0, 0.2), pm::SamplerConfig{}, rng1);
  const auto b =
      pm::sample(constant_capture(33.0, 0.2), pm::SamplerConfig{}, rng2);
  ASSERT_EQ(a.channels[0].samples.size(), b.channels[0].samples.size());
  for (std::size_t i = 0; i < a.channels[0].samples.size(); ++i)
    EXPECT_DOUBLE_EQ(a.channels[0].samples[i].watts(),
                     b.channels[0].samples[i].watts());
}

TEST(Sampler, MultiRailKeepsPerChannelStreams) {
  Rng rng(8);
  const auto sampled =
      pm::sample(constant_capture(90.0, 0.25, 3), pm::SamplerConfig{}, rng);
  EXPECT_EQ(sampled.channels.size(), 3u);
  for (const auto& ch : sampled.channels)
    EXPECT_FALSE(ch.samples.empty());
}

TEST(Sampler, FourRailsRunDerated) {
  Rng rng(9);
  const auto sampled =
      pm::sample(constant_capture(90.0, 0.25, 4), pm::SamplerConfig{}, rng);
  for (const auto& ch : sampled.channels)
    EXPECT_DOUBLE_EQ(ch.effective_hz, 768.0);
}

TEST(Sampler, RampTraceCapturedFaithfully) {
  pm::PowerTrace t;
  t.add_point(0.0, 0.0);
  t.add_point(1.0, 100.0);
  pm::Capture cap;
  cap.rails.push_back({.channel = {.name = "x", .nominal_volts = 12.0},
                       .trace = t});
  cap.window_end = 1.0;
  Rng rng(10);
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 0.0;
  const auto sampled = pm::sample(cap, cfg, rng);
  // Mid-window sample should read ~half power.
  const auto& xs = sampled.channels[0].samples;
  const pm::Sample& mid = xs[xs.size() / 2];
  EXPECT_NEAR(mid.watts(), 100.0 * mid.t, 1.0);
}

TEST(SamplerReference, MatchesPerSampleFormulaAcrossAdcWidths) {
  for (const int bits : {1, 8, 16}) {
    SCOPED_TRACE(bits);
    pm::SamplerConfig cfg;
    cfg.adc_bits = bits;
    expect_matches_reference(ramp_capture(30.0), cfg);
  }
}

TEST(SamplerReference, MatchesWhenCurrentClampsAtFullScale) {
  pm::SamplerConfig cfg;
  cfg.adc_full_scale_amps = 10.0;
  expect_matches_reference(ramp_capture(30.0), cfg);
}

TEST(SamplerReference, MatchesWithoutQuantization) {
  pm::SamplerConfig cfg;
  cfg.quantize = false;
  expect_matches_reference(ramp_capture(30.0), cfg);
}

TEST(SamplerReference, MatchesUnderDropout) {
  pm::SamplerConfig cfg;
  cfg.dropout_rate = 0.2;
  expect_matches_reference(ramp_capture(30.0), cfg);
}

// ---- Streaming mean ------------------------------------------------------

/// sample_mean must equal integrate_mean(sample(...)) to the bit and leave
/// the generator where sample() leaves it.
void expect_stream_matches_stored(const pm::Capture& cap,
                                  const pm::SamplerConfig& cfg) {
  Rng stored_rng(91);
  Rng stream_rng(91);
  const pm::Measurement want =
      pm::integrate_mean(pm::sample(cap, cfg, stored_rng));
  const pm::Measurement got = pm::sample_mean(cap, cfg, stream_rng);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.seconds),
            std::bit_cast<std::uint64_t>(want.seconds));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.avg_watts),
            std::bit_cast<std::uint64_t>(want.avg_watts))
      << got.avg_watts << " vs " << want.avg_watts;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.joules),
            std::bit_cast<std::uint64_t>(want.joules));
  EXPECT_EQ(stream_rng(), stored_rng());
}

/// Both the stored samples (against the per-sample reference) and the
/// streaming mean (against the stored samples).
void expect_exact(const pm::Capture& cap, const pm::SamplerConfig& cfg) {
  expect_matches_reference(cap, cfg);
  expect_stream_matches_stored(cap, cfg);
}

/// `rails` rails over a three-segment trace with a step (two breakpoints
/// at one time), each rail at a different voltage and share.
pm::Capture multi_rail_capture(std::size_t rails) {
  pm::PowerTrace t;
  t.add_point(0.0, 20.0);
  t.add_point(0.05, 140.0);
  t.add_point(0.12, 140.0);
  t.add_point(0.12, 60.0);
  t.add_point(0.2, 90.0);
  pm::Capture cap;
  for (std::size_t i = 0; i < rails; ++i)
    cap.rails.push_back(
        {.channel = {.name = "rail" + std::to_string(i),
                     .nominal_volts = 3.3 + 2.0 * static_cast<double>(i)},
         .trace = t.scaled(1.0 / static_cast<double>(rails))});
  cap.window_begin = 0.01;
  cap.window_end = 0.19;
  return cap;
}

/// One kernel run of a Table I platform's simulated machine.
pm::Capture platform_capture(const std::string& name,
                             const archline::sim::NonidealityProfile* profile =
                                 nullptr) {
  const auto& spec = archline::platforms::platform(name);
  const archline::sim::SimMachine m =
      profile ? archline::sim::make_machine(spec, *profile)
              : archline::sim::make_machine(spec);
  Rng rng(7);
  return m
      .run(archline::microbench::intensity_kernel(
               2.0, 4e8, archline::core::Precision::Single,
               archline::core::MemLevel::DRAM),
           rng)
      .capture;
}

TEST(SampleMean, MatchesStoredSamplesOnOneThreeAndEightRails) {
  for (const std::size_t rails : {1u, 3u, 8u}) {
    SCOPED_TRACE(rails);
    expect_exact(multi_rail_capture(rails), pm::SamplerConfig{});
  }
}

TEST(SampleMean, MatchesUnderDropoutWithoutQuantization) {
  pm::SamplerConfig cfg;
  cfg.dropout_rate = 0.2;
  cfg.quantize = false;
  expect_exact(multi_rail_capture(3), cfg);
}

TEST(SampleMean, MatchesWhenJitterSpansThreeSamplePeriods) {
  // Jitter past the period sends the trace cursor backwards.
  const pm::Capture cap = multi_rail_capture(2);
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 3.0 / pm::effective_rate(cfg, cap.rails.size());
  expect_exact(cap, cfg);
}

TEST(SampleMean, MatchesAcrossAdcWidthsIncludingTheLibmFallback) {
  for (const int bits : {12, 60}) {
    SCOPED_TRACE(bits);
    pm::SamplerConfig cfg;
    cfg.adc_bits = bits;
    expect_exact(multi_rail_capture(3), cfg);
    expect_exact(ramp_capture(30.0), cfg);
  }
}

TEST(SampleMean, MatchesOnZeroRampTracesWithDuplicateBreakpoints) {
  archline::sim::NonidealityProfile profile =
      archline::sim::default_nonidealities(
          archline::platforms::platform("GTX Titan"));
  profile.ramp_time_s = 0.0;
  const pm::Capture cap = platform_capture("GTX Titan", &profile);
  const auto& points = cap.rails.front().trace.points();
  ASSERT_GE(points.size(), 2u);
  ASSERT_EQ(points[0].t, points[1].t);
  expect_exact(cap, pm::SamplerConfig{});
}

TEST(SampleMean, MatchesOnNucGpuBurstTraces) {
  const pm::Capture cap = platform_capture("NUC GPU");
  // OS-interference bursts add breakpoints beyond the base ramp.
  ASSERT_GT(cap.rails.front().trace.points().size(), 3u);
  expect_exact(cap, pm::SamplerConfig{});
}

TEST(SampleMean, MatchesWhenSamplesLandOnBreakpoints) {
  // At 1024 Hz the tick is 2^-10 s, so without jitter the ticks hit
  // 0.125 s exactly: a step there must read the value after the step.
  pm::PowerTrace t;
  t.add_point(0.0, 10.0);
  t.add_point(0.125, 50.0);
  t.add_point(0.125, 20.0);
  t.add_point(0.25, 80.0);
  pm::Capture cap;
  cap.rails.push_back(
      {.channel = {.name = "12v", .nominal_volts = 12.0}, .trace = t});
  cap.window_end = 0.3;
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 0.0;
  cfg.quantize = false;
  expect_exact(cap, cfg);
}

TEST(SampleMean, MatchesOverManyWindowLengths) {
  // The per-channel mean divides by the kept-sample count; sweep the
  // count so a reassociated division would show.
  for (int i = 0; i < 60; ++i) {
    SCOPED_TRACE(i);
    pm::Capture cap = multi_rail_capture(1 + i % 4);
    cap.window_end = 0.02 + 0.003 * i;
    pm::SamplerConfig cfg;
    cfg.dropout_rate = i % 3 == 0 ? 0.1 : 0.0;
    expect_stream_matches_stored(cap, cfg);
  }
}

TEST(SamplerRounding, TiesRoundAwayFromZero) {
  // 240 W on a 12 V rail reads 20 A: half of the 40 A full scale, so a
  // 1-bit ADC scales it to code 0.5 and a 2-bit ADC to 1.5, both ties.
  const pm::Capture cap = constant_capture(240.0, 0.05);
  for (const int bits : {1, 2}) {
    SCOPED_TRACE(bits);
    pm::SamplerConfig cfg;
    cfg.adc_bits = bits;
    cfg.timestamp_jitter_s = 0.0;
    Rng rng(3);
    const pm::SampledCapture got = pm::sample(cap, cfg, rng);
    const double levels = std::exp2(bits) - 1.0;
    const double want = std::ceil(0.5 * levels) / levels * 40.0;
    for (const pm::Sample& x : got.channels[0].samples)
      ASSERT_EQ(x.amps, want);
    expect_exact(cap, cfg);
  }
}

TEST(SamplerRounding, NegativeZeroPowerReadsNegativeZeroCurrent) {
  // std::round keeps the sign of zero; so must the sampler's round. A
  // one-point trace holds its -0 W everywhere (interpolation would give
  // +0).
  pm::PowerTrace t;
  t.add_point(0.0, -0.0);
  pm::Capture cap;
  cap.rails.push_back(
      {.channel = {.name = "12v", .nominal_volts = 12.0}, .trace = t});
  cap.window_end = 0.05;
  Rng rng(4);
  const pm::SampledCapture got = pm::sample(cap, pm::SamplerConfig{}, rng);
  ASSERT_FALSE(got.channels[0].samples.empty());
  for (const pm::Sample& x : got.channels[0].samples)
    ASSERT_TRUE(std::signbit(x.amps));
  expect_exact(cap, pm::SamplerConfig{});
}

// ---- Flat stretches ------------------------------------------------------
// A sample whose every possible probe lies in one constant region of the
// trace reads that region's value and skips its jitter draw with
// Rng::advance. The stored samples must still equal the per-sample
// reference, and the streaming mean the stored samples, to the bit.

/// One 12 V rail over `t` with window [begin, end].
pm::Capture one_rail(const pm::PowerTrace& t, double begin, double end) {
  pm::Capture cap;
  cap.rails.push_back(
      {.channel = {.name = "12v", .nominal_volts = 12.0}, .trace = t});
  cap.window_begin = begin;
  cap.window_end = end;
  return cap;
}

/// Ramp up, plateau, ramp down: the shape of one simulated kernel run.
pm::PowerTrace plateau_trace() {
  pm::PowerTrace t;
  t.add_point(0.0, 30.0);
  t.add_point(0.02, 150.0);
  t.add_point(0.2, 150.0);
  t.add_point(0.23, 40.0);
  return t;
}

TEST(SamplerFlat, PlateauWithZeroJitter) {
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 0.0;
  expect_exact(one_rail(plateau_trace(), 0.0, 0.23), cfg);
  cfg.quantize = false;
  expect_exact(one_rail(plateau_trace(), 0.0, 0.23), cfg);
}

TEST(SamplerFlat, PlateauWithDefaultAndWideJitter) {
  for (const double jitter : {20e-6, 500e-6, 4e-3}) {
    SCOPED_TRACE(jitter);
    pm::SamplerConfig cfg;
    cfg.timestamp_jitter_s = jitter;
    expect_exact(one_rail(plateau_trace(), 0.0, 0.23), cfg);
  }
}

TEST(SamplerFlat, StepOneUlpFromATickOrOnIt) {
  // Without jitter the tick k * 2^-10 s is the only probe. A step one ulp
  // after it leaves the tick inside the plateau; a step on it or one ulp
  // before it makes the tick read the level after the step.
  const double tick = 40.0 / 1024.0;
  for (const double step : {std::nextafter(tick, 0.0), tick,
                            std::nextafter(tick, 1.0)}) {
    SCOPED_TRACE(step - tick);
    pm::PowerTrace t;
    t.add_point(0.0, 90.0);
    t.add_point(step, 90.0);
    t.add_point(step, 30.0);
    t.add_point(0.08, 30.0);
    pm::SamplerConfig cfg;
    cfg.timestamp_jitter_s = 0.0;
    const pm::Capture cap = one_rail(t, 0.0, 0.08);
    expect_exact(cap, cfg);
    Rng rng(5);
    const pm::SampledCapture got = pm::sample(cap, cfg, rng);
    const double want = step > tick ? 90.0 : 30.0;
    EXPECT_NEAR(got.channels[0].samples[40].watts(), want, 0.2);
  }
}

TEST(SamplerFlat, ProbeSpanEndsOneUlpFromABreakpoint) {
  // With J = 2^-14 s the span [t - 2J, t + 2J] of a tick is exact, so a
  // breakpoint can sit on either end of it or one ulp to either side.
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 0x1p-14;
  const double margin = 2.0 * cfg.timestamp_jitter_s;
  const double tick = 40.0 / 1024.0;
  for (const double edge : {tick + margin, tick - margin}) {
    for (const double bp : {std::nextafter(edge, 0.0), edge,
                            std::nextafter(edge, 1.0)}) {
      SCOPED_TRACE(bp - edge);
      // Plateau up to bp, then a ramp; and a ramp up to bp, then a
      // plateau.
      pm::PowerTrace down;
      down.add_point(0.0, 90.0);
      down.add_point(bp, 90.0);
      down.add_point(0.08, 20.0);
      expect_exact(one_rail(down, 0.0, 0.08), cfg);
      pm::PowerTrace up;
      up.add_point(0.0, 20.0);
      up.add_point(bp, 90.0);
      up.add_point(0.08, 90.0);
      expect_exact(one_rail(up, 0.0, 0.08), cfg);
    }
  }
}

TEST(SamplerFlat, LongPlateausEndOnTheExactTick) {
  // At 1000 Hz from 0.0123 s the ticks t += dt drift from k * dt by
  // rounding. Steps sit on a late tick's own time, on the time its probe
  // span reaches, and one ulp either side, after hundreds of flat ticks.
  pm::SamplerConfig cfg;
  cfg.per_channel_hz = 1000.0;
  const double dt = 1.0 / 1000.0;
  const double begin = 0.0123;
  for (const double jitter : {0.0, 0x1p-15, 1e-5}) {
    cfg.timestamp_jitter_s = jitter;
    for (const int k : {300, 517, 640}) {
      double tick = begin;
      for (int i = 0; i < k; ++i) tick += dt;
      const double edge = tick + 2.0 * jitter;
      for (const double step : {std::nextafter(edge, 0.0), edge,
                                std::nextafter(edge, 1.0)}) {
        SCOPED_TRACE(testing::Message()
                     << "jitter " << jitter << " tick " << k << " step "
                     << step - edge);
        pm::PowerTrace t;
        t.add_point(0.0, 75.0);
        t.add_point(step, 75.0);
        t.add_point(step, 30.0);
        t.add_point(1.0, 30.0);
        expect_exact(one_rail(t, begin, 0.9), cfg);
      }
    }
  }
}

TEST(SamplerFlat, JitterWiderThanAFlatSegment) {
  // 1 ms plateaus between ramps, probed with up to 2 ms of jitter: a tick
  // inside a plateau can still read the ramps beside it.
  pm::PowerTrace t;
  t.add_point(0.0, 10.0);
  for (int i = 0; i < 20; ++i) {
    const double t0 = 0.004 * i;
    const double w = 40.0 + 30.0 * (i % 3);
    t.add_point(t0 + 0.002, w);
    t.add_point(t0 + 0.003, w);
  }
  const pm::Capture cap = one_rail(t, 0.0, 0.08);
  for (const double jitter : {0.1e-3, 0.4e-3, 2e-3}) {
    SCOPED_TRACE(jitter);
    pm::SamplerConfig cfg;
    cfg.timestamp_jitter_s = jitter;
    cfg.per_channel_hz = 4096.0;
    cfg.aggregate_hz = 3.0 * 4096.0;
    expect_exact(cap, cfg);
  }
}

TEST(SamplerFlat, ShortPlateausUnderWideJitterAndHeavyDropout) {
  // Steps between levels every 8 ticks. With jitter near a tick, a flat
  // answer may be reused for few ticks before the probes reach a step;
  // heavy dropout leaves many ticks without a kept sample.
  pm::PowerTrace t;
  const double dt = 1.0 / 1024.0;
  for (int i = 0; i < 60; ++i) {
    const double w = 20.0 + 25.0 * (i % 4);
    t.add_point(8.0 * dt * i + 0.3 * dt, w);
    t.add_point(8.0 * dt * (i + 1) + 0.3 * dt, w);
  }
  const pm::Capture cap = one_rail(t, 0.0, 0.45);
  for (const double jitter : {0.4 * dt, 0.9 * dt, 1.5 * dt}) {
    for (const double dropout : {0.0, 0.7}) {
      SCOPED_TRACE(testing::Message() << jitter / dt << " " << dropout);
      pm::SamplerConfig cfg;
      cfg.timestamp_jitter_s = jitter;
      cfg.dropout_rate = dropout;
      expect_exact(cap, cfg);
    }
  }
}

TEST(SamplerFlat, WindowsInsideAndPastThePlateau) {
  const pm::PowerTrace t = plateau_trace();
  // Starts inside the plateau; ends inside it, on the last breakpoint,
  // and past it.
  for (const double end : {0.15, 0.23, 0.3}) {
    SCOPED_TRACE(end);
    expect_exact(one_rail(t, 0.05, end), pm::SamplerConfig{});
    pm::SamplerConfig wide;
    wide.timestamp_jitter_s = 3e-3;
    expect_exact(one_rail(t, 0.05, end), wide);
  }
  // Entirely after the last breakpoint, and before the first.
  expect_exact(one_rail(t, 0.25, 0.3), pm::SamplerConfig{});
  pm::PowerTrace late;
  late.add_point(0.1, 50.0);
  late.add_point(0.2, 80.0);
  expect_exact(one_rail(late, 0.0, 0.09), pm::SamplerConfig{});
}

TEST(SamplerFlat, OnePointAndEmptyTraces) {
  // One breakpoint inside the window: value() reads its watts on both
  // sides, -0 W included. An empty trace reads 0 W.
  for (const double watts : {70.0, -0.0}) {
    SCOPED_TRACE(watts);
    pm::PowerTrace t;
    t.add_point(0.02, watts);
    const pm::Capture cap = one_rail(t, 0.0, 0.05);
    expect_exact(cap, pm::SamplerConfig{});
    Rng rng(3);
    const pm::SampledCapture got = pm::sample(cap, pm::SamplerConfig{}, rng);
    for (const pm::Sample& x : got.channels[0].samples)
      ASSERT_EQ(std::signbit(x.amps), std::signbit(watts));
  }
  expect_exact(one_rail(pm::PowerTrace{}, 0.0, 0.05), pm::SamplerConfig{});
  // Inside a flat segment at -0 W, interpolation reads +0 W.
  pm::PowerTrace zero;
  zero.add_point(0.0, -0.0);
  zero.add_point(0.05, -0.0);
  expect_exact(one_rail(zero, 0.0, 0.05), pm::SamplerConfig{});
}

TEST(SamplerFlat, DropoutOverPlateaus) {
  // Every dropout draw comes after the skipped jitter draws before it.
  pm::SamplerConfig cfg;
  cfg.dropout_rate = 0.2;
  expect_exact(one_rail(plateau_trace(), 0.0, 0.23), cfg);
  cfg.timestamp_jitter_s = 0.0;
  expect_exact(one_rail(plateau_trace(), 0.0, 0.23), cfg);
}

TEST(SamplerFlat, EightRailsAtDifferentScales) {
  const pm::PowerTrace t = plateau_trace();
  pm::Capture cap;
  for (std::size_t i = 0; i < 8; ++i)
    cap.rails.push_back(
        {.channel = {.name = "rail" + std::to_string(i),
                     .nominal_volts = 1.8 + 1.5 * static_cast<double>(i)},
         .trace = t.scaled(0.05 + 0.1 * static_cast<double>(i))});
  cap.window_begin = 0.01;
  cap.window_end = 0.23;
  expect_exact(cap, pm::SamplerConfig{});
  pm::SamplerConfig lossy;
  lossy.dropout_rate = 0.1;
  expect_exact(cap, lossy);
}

TEST(SamplerFlat, AlternatingPowerLevels) {
  // Steps between two levels every 3 ms, and down to 0 W (the power the
  // ADC's memory starts from) every third step: the remembered power
  // changes at every step.
  pm::PowerTrace t;
  for (int i = 0; i < 40; ++i) {
    const double w = i % 3 == 2 ? 0.0 : i % 2 == 0 ? 60.0 : 135.0;
    t.add_point(0.003 * i, w);
    t.add_point(0.003 * (i + 1), w);
  }
  expect_exact(one_rail(t, 0.0, 0.12), pm::SamplerConfig{});
  pm::SamplerConfig cfg;
  cfg.timestamp_jitter_s = 0.0;
  expect_exact(one_rail(t, 0.0, 0.12), cfg);
}

TEST(SamplerFlat, TableOnePlatformRuns) {
  for (const char* name : {"GTX Titan", "Xeon Phi", "Arndale CPU"}) {
    SCOPED_TRACE(name);
    expect_exact(platform_capture(name), pm::SamplerConfig{});
  }
}

// ---- Flat runs ----------------------------------------------------------
// Without dropout, the ticks after a flat one that stay in its region are
// consumed in one loop that stops at the window's end or on the first
// tick whose span end fl(t + 2J) passes the region's end. Four rails, so
// the period is 1/768 s (not a power of two), from a window start that is
// no tick of 0, under a margin 2J of 0, 40 us and more than three periods.

/// The four rails of `t`, each at its own voltage and share.
pm::Capture four_rails(const pm::PowerTrace& t, double begin, double end) {
  pm::Capture cap;
  for (std::size_t i = 0; i < 4; ++i)
    cap.rails.push_back(
        {.channel = {.name = "rail" + std::to_string(i),
                     .nominal_volts = 1.8 + 3.0 * static_cast<double>(i)},
         .trace = t.scaled(0.1 + 0.2 * static_cast<double>(i))});
  cap.window_begin = begin;
  cap.window_end = end;
  return cap;
}

/// The jitters J whose margins 2J are 0, 40 us and 3.2 periods at 4 rails.
std::vector<double> flat_run_jitters() {
  return {0.0, 20e-6, 1.6 / pm::effective_rate(pm::SamplerConfig{}, 4)};
}

TEST(SamplerFlatRun, RunReachesTheWindowEnd) {
  // A ramp, then a plateau whose region ends past the window end, exactly
  // on it (the next breakpoint one ulp after it), one ulp before it, or
  // never; and a window that ends on a tick.
  const double begin = 0.0371;
  const double dt = 1.0 / 768.0;
  double tick = begin;
  for (int i = 0; i < 300; ++i) tick += dt;
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const double end : {0.33, tick}) {
    for (const double next : {2.0, std::nextafter(end, inf), end, inf}) {
      pm::PowerTrace t;
      t.add_point(0.0, 20.0);
      t.add_point(0.05, 90.0);
      if (next < inf) {
        t.add_point(next, 90.0);
        t.add_point(next, 40.0);
        t.add_point(next + 1.0, 40.0);
      }
      for (const double jitter : flat_run_jitters()) {
        SCOPED_TRACE(testing::Message() << "end " << end << " next "
                                        << next - end << " jitter " << jitter);
        pm::SamplerConfig cfg;
        cfg.timestamp_jitter_s = jitter;
        expect_exact(four_rails(t, begin, end), cfg);
      }
    }
  }
}

TEST(SamplerFlatRun, RunStopsOnTheFirstTickPastTheRegionEnd) {
  // A plateau whose region ends one ulp before a step: the run takes tick
  // k exactly when fl(tick_k + 2J) lies before the step. The step sits
  // one ulp before that time, on it, and one ulp after it.
  const double begin = 0.0123;
  const double dt = 1.0 / 768.0;
  ASSERT_EQ(pm::effective_rate(pm::SamplerConfig{}, 4), 768.0);
  for (const double jitter : flat_run_jitters()) {
    pm::SamplerConfig cfg;
    cfg.timestamp_jitter_s = jitter;
    for (const int k : {200, 431, 640}) {
      double tick = begin;
      for (int i = 0; i < k; ++i) tick += dt;
      const double edge = tick + 2.0 * jitter;
      for (const double step : {std::nextafter(edge, 0.0), edge,
                                std::nextafter(edge, 1.0)}) {
        SCOPED_TRACE(testing::Message() << "jitter " << jitter << " tick "
                                        << k << " step " << step - edge);
        pm::PowerTrace t;
        t.add_point(0.0, 75.0);
        t.add_point(step, 75.0);
        t.add_point(step, 30.0);
        t.add_point(1.0, 30.0);
        const pm::Capture cap = four_rails(t, begin, 0.9);
        expect_exact(cap, cfg);
        if (jitter == 0.0) {
          // The probe is the tick itself: tick k reads the plateau only
          // when the step lies after it.
          Rng rng(8);
          const pm::SampledCapture got = pm::sample(cap, cfg, rng);
          const double want = step > tick ? 75.0 : 30.0;
          EXPECT_NEAR(got.channels[0].samples[k].watts(), 0.1 * want, 0.1);
        }
      }
    }
  }
}

TEST(Sampler, RejectsInvalidConfig) {
  const pm::Capture cap = one_rail(plateau_trace(), 0.0, 0.1);
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<pm::SamplerConfig> bad;
  for (const double hz : {-1.0, 0.0, nan}) {
    pm::SamplerConfig cfg;
    cfg.per_channel_hz = hz;
    bad.push_back(cfg);
  }
  pm::SamplerConfig unbounded;
  unbounded.per_channel_hz = inf;
  unbounded.aggregate_hz = inf;
  bad.push_back(unbounded);
  for (const double jitter : {-1e-6, nan, inf}) {
    pm::SamplerConfig cfg;
    cfg.timestamp_jitter_s = jitter;
    bad.push_back(cfg);
  }
  for (const int bits : {0, -3}) {
    pm::SamplerConfig cfg;
    cfg.adc_bits = bits;
    bad.push_back(cfg);
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    Rng rng(1);
    EXPECT_THROW((void)pm::sample(cap, bad[i], rng), std::invalid_argument);
    EXPECT_THROW((void)pm::sample_mean(cap, bad[i], rng),
                 std::invalid_argument);
  }
  // Without quantization the ADC width is unused.
  pm::SamplerConfig ideal;
  ideal.quantize = false;
  ideal.adc_bits = 0;
  expect_exact(cap, ideal);
}

TEST(SampleMean, ThrowsWhereSampleThrows) {
  Rng rng(1);
  pm::Capture none;
  none.window_end = 1.0;
  EXPECT_THROW((void)pm::sample_mean(none, {}, rng), std::invalid_argument);
  pm::Capture empty_window = multi_rail_capture(1);
  empty_window.window_end = empty_window.window_begin;
  EXPECT_THROW((void)pm::sample_mean(empty_window, {}, rng),
               std::invalid_argument);
  pm::SamplerConfig all_lost;
  all_lost.dropout_rate = 1.0;
  EXPECT_THROW((void)pm::sample_mean(multi_rail_capture(1), all_lost, rng),
               std::invalid_argument);
}

}  // namespace
