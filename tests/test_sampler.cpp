// Tests for the simulated PowerMon 2 sampler: rates, derating,
// quantization, determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "powermon/sampler.hpp"

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

}  // namespace
