#pragma once
// Simulated PowerMon 2 sampling front-end.
//
// PowerMon 2 (Bedard et al., SoutheastCon 2010) samples DC voltage and
// current inline at 1024 Hz per channel, up to 8 channels, with an
// aggregate budget of 3072 Hz: beyond three active channels the firmware
// round-robins, so the effective per-channel rate drops to 3072/n. Each
// sample is a 12-bit ADC reading of voltage and current whose product is
// the reported instantaneous power. We reproduce those artifacts —
// rate derating, quantization, and timestamp jitter — because they bound
// how well any downstream analysis can do.
//
// CONTRACT — bit identity. Every microbenchmark observation, and through
// them every fit and the golden `fit` replies, is pinned to the last bit
// (tests/test_paper_pipeline_digest.cpp). The rules that keep it:
//
//   * one sampling loop; per rail and per tick it consumes the dropout
//     uniform (when dropout is on), then the jitter uniform, in that
//     order, so every consumer sees the same random stream. Where the
//     jitter cannot change the reading (below), its draw is consumed by
//     Rng::advance instead of drawn, in the same order: skips are
//     batched but settled before any real draw and at the end of a rail;
//   * a reading is PowerTrace::value at the jittered time, then the
//     ADC's clamp, scale, round half away from zero, and rescale, each
//     in the same expression — a faster round or trace lookup must return
//     the same bits (tests/test_sampler.cpp checks against the per-sample
//     formula). When every time the clamped probe can take lies in one
//     constant region of the trace (TraceCursor::region), the reading
//     is that region's value, which is value() at any of those times.
//     Both ends of the span only rise with t, so without dropout the
//     ticks after a flat one are flat exactly while fl(t + 2J) (or the
//     window end) stays within the region's end: one tight loop adds
//     them with the region's current. A "not flat" answer may be
//     reused for the next ticks only as far as a bound that covers the
//     rounding of t shows it cannot change, and the ADC may reuse the
//     current it last computed for the same power bits;
//   * the streaming estimator, sample_mean() in integrator.hpp, is the
//     paper's §IV-h mean: per channel acc += V * I in sample order, then
//     total += acc / count over channels in order — the sums
//     integrate_mean() forms over sample()'s output. Work may be split
//     into passes or SIMD lanes across samples; those sums may not be
//     reordered.

#include <cstddef>
#include <vector>

#include "powermon/trace.hpp"
#include "stats/rng.hpp"

namespace archline::powermon {

struct SamplerConfig {
  double per_channel_hz = 1024.0;  ///< nominal per-channel rate
  double aggregate_hz = 3072.0;    ///< firmware budget across channels
  std::size_t max_channels = 8;
  int adc_bits = 12;               ///< ADC resolution for V and I
  double adc_full_scale_volts = 26.0;   ///< PowerMon 2 input range
  double adc_full_scale_amps = 40.0;
  double timestamp_jitter_s = 20e-6;    ///< uniform +/- jitter per sample
  bool quantize = true;                 ///< disable for ideal sampling

  /// Probability of losing any individual sample (serial-link hiccups on
  /// the real device). Lost samples simply never appear in the stream;
  /// the integrators must cope with ragged channels. 0 disables.
  double dropout_rate = 0.0;
};

/// One timestamped sample on one channel.
struct Sample {
  double t = 0.0;      ///< reported timestamp [s]
  double volts = 0.0;  ///< quantized voltage reading
  double amps = 0.0;   ///< quantized current reading

  [[nodiscard]] double watts() const noexcept { return volts * amps; }
};

/// All samples captured on one channel.
struct ChannelSamples {
  Channel channel;
  double effective_hz = 0.0;  ///< rate after aggregate derating
  std::vector<Sample> samples;
};

/// A sampled capture: per-channel sample streams over the kernel window.
struct SampledCapture {
  std::vector<ChannelSamples> channels;
  double window_begin = 0.0;
  double window_end = 0.0;
};

/// Effective per-channel rate under the aggregate budget.
[[nodiscard]] double effective_rate(const SamplerConfig& cfg,
                                    std::size_t active_channels);

/// Samples every rail of `capture` over its kernel window, keeping every
/// sample (sample_mean() runs the same loop without storing them).
/// Throws std::invalid_argument if the capture has no rails or more than
/// max_channels, the window is empty, the effective rate is not positive
/// and finite, the jitter is negative or not finite, or a quantizing ADC
/// has fewer than one bit.
[[nodiscard]] SampledCapture sample(const Capture& capture,
                                    const SamplerConfig& cfg,
                                    stats::Rng& rng);

}  // namespace archline::powermon
