#include "powermon/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace archline::powermon {

namespace {

/// Quantizes `value` onto a grid of `levels` + 1 codes spanning
/// [0, full_scale]; a `bits`-bit ADC has levels = 2^bits - 1.
double quantize_adc(double value, double levels, double full_scale) {
  const double clamped = std::clamp(value, 0.0, full_scale);
  const double code = std::round(clamped / full_scale * levels);
  return code / levels * full_scale;
}

}  // namespace

double effective_rate(const SamplerConfig& cfg, std::size_t active_channels) {
  if (active_channels == 0)
    throw std::invalid_argument("effective_rate: no channels");
  const double budget_share =
      cfg.aggregate_hz / static_cast<double>(active_channels);
  return std::min(cfg.per_channel_hz, budget_share);
}

SampledCapture sample(const Capture& capture, const SamplerConfig& cfg,
                      stats::Rng& rng) {
  if (capture.rails.empty())
    throw std::invalid_argument("sample: capture has no rails");
  if (capture.rails.size() > cfg.max_channels)
    throw std::invalid_argument("sample: more rails than sampler channels");
  if (!(capture.window_end > capture.window_begin))
    throw std::invalid_argument("sample: empty measurement window");

  const double rate = effective_rate(cfg, capture.rails.size());
  const double dt = 1.0 / rate;

  SampledCapture out;
  out.window_begin = capture.window_begin;
  out.window_end = capture.window_end;
  out.channels.reserve(capture.rails.size());

  const double levels = std::exp2(cfg.adc_bits) - 1.0;
  // The timestamps every channel walks; the count sizes each channel's
  // samples once (dropout only ever leaves it short).
  std::size_t ticks = 0;
  for (double t = capture.window_begin; t <= capture.window_end; t += dt)
    ++ticks;

  for (const Capture::Rail& rail : capture.rails) {
    ChannelSamples cs;
    cs.channel = rail.channel;
    cs.effective_hz = rate;
    cs.samples.reserve(ticks);
    const double volts = rail.channel.nominal_volts;
    // The rail's voltage is constant, so its reading is too.
    const double volts_reading =
        cfg.quantize ? quantize_adc(volts, levels, cfg.adc_full_scale_volts)
                     : volts;
    for (double t = capture.window_begin; t <= capture.window_end;
         t += dt) {
      if (cfg.dropout_rate > 0.0 && rng.uniform() < cfg.dropout_rate)
        continue;  // sample lost in transit
      // The device is probed at a jittered true time but the record keeps
      // the nominal timestamp, as real sampling hardware does.
      const double jitter = rng.uniform(-cfg.timestamp_jitter_s,
                                        cfg.timestamp_jitter_s);
      const double true_t =
          std::clamp(t + jitter, capture.window_begin, capture.window_end);
      const double watts = rail.trace.value(true_t);
      const double amps = volts > 0.0 ? watts / volts : 0.0;
      cs.samples.push_back(
          {.t = t,
           .volts = volts_reading,
           .amps = cfg.quantize
                       ? quantize_adc(amps, levels, cfg.adc_full_scale_amps)
                       : amps});
    }
    if (cs.samples.empty())
      throw std::invalid_argument("sample: window shorter than one period");
    out.channels.push_back(std::move(cs));
  }
  return out;
}

}  // namespace archline::powermon
