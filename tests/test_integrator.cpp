// Tests for the paper's mean-power energy estimator, against the exact
// energy of the trace it samples.

#include <gtest/gtest.h>

#include <stdexcept>

#include "powermon/integrator.hpp"

namespace {

namespace pm = archline::powermon;
using archline::stats::Rng;

pm::SampledCapture sample_trace(const pm::PowerTrace& trace, double duration,
                                std::uint64_t seed = 1,
                                bool jitter = false) {
  pm::Capture cap;
  cap.rails.push_back({.channel = {.name = "x", .nominal_volts = 12.0},
                       .trace = trace});
  cap.window_begin = 0.0;
  cap.window_end = duration;
  Rng rng(seed);
  pm::SamplerConfig cfg;
  cfg.quantize = false;
  if (!jitter) cfg.timestamp_jitter_s = 0.0;
  return pm::sample(cap, cfg, rng);
}

TEST(IntegrateMean, ConstantPowerExact) {
  pm::PowerTrace t;
  t.add_constant(2.0, 50.0);
  const pm::Measurement m = pm::integrate_mean(sample_trace(t, 2.0));
  EXPECT_DOUBLE_EQ(m.seconds, 2.0);
  EXPECT_NEAR(m.avg_watts, 50.0, 1e-9);
  EXPECT_NEAR(m.joules, 100.0, 1e-6);
  EXPECT_EQ(m.joules, m.avg_watts * m.seconds);  // by construction
}

TEST(IntegrateMean, RampCloseToTrueIntegral) {
  pm::PowerTrace t;
  t.add_point(0.0, 0.0);
  t.add_point(1.0, 100.0);  // true energy 50 J
  const pm::Measurement m = pm::integrate_mean(sample_trace(t, 1.0));
  EXPECT_NEAR(m.joules, 50.0, 0.2);
}

TEST(IntegrateMean, MultiChannelSumsAveragePowers) {
  pm::PowerTrace t;
  t.add_constant(1.0, 30.0);
  pm::Capture cap;
  cap.rails.push_back({.channel = {.name = "a", .nominal_volts = 12.0},
                       .trace = t});
  cap.rails.push_back({.channel = {.name = "b", .nominal_volts = 12.0},
                       .trace = t});
  cap.window_end = 1.0;
  Rng rng(2);
  pm::SamplerConfig cfg;
  cfg.quantize = false;
  cfg.timestamp_jitter_s = 0.0;
  const pm::Measurement m = pm::integrate_mean(pm::sample(cap, cfg, rng));
  EXPECT_NEAR(m.avg_watts, 60.0, 1e-9);
}

TEST(IntegrateMean, EmptyCaptureThrows) {
  pm::SampledCapture cap;
  cap.window_end = 1.0;
  EXPECT_THROW((void)pm::integrate_mean(cap), std::invalid_argument);
}

TEST(IntegrateMean, EmptyWindowThrows) {
  pm::PowerTrace t;
  t.add_constant(1.0, 1.0);
  pm::SampledCapture cap = sample_trace(t, 1.0);
  cap.window_end = cap.window_begin;
  EXPECT_THROW((void)pm::integrate_mean(cap), std::invalid_argument);
}

TEST(Integrators, MeanEstimatorBiasBoundedOnTransient) {
  // A short high spike inside a long window: mean-of-samples handles it as
  // long as sampling resolves the spike.
  pm::PowerTrace t;
  t.add_point(0.0, 10.0);
  t.add_point(0.45, 10.0);
  t.add_point(0.5, 110.0);
  t.add_point(0.55, 10.0);
  t.add_point(1.0, 10.0);
  const double truth = t.total_energy();
  const pm::Measurement m = pm::integrate_mean(sample_trace(t, 1.0));
  EXPECT_NEAR(m.joules, truth, 0.05 * truth);
}

}  // namespace
