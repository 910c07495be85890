#include "powermon/sampler.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "powermon/integrator.hpp"

namespace archline::powermon {

namespace {

/// std::round for x in [0, 2^52) (and -0), without the libm call or a
/// branch on x: the integer cast truncates exactly there, x - whole is
/// exact, and copysign keeps the zero's sign.
double round_in_range(double x) {
  const double whole = static_cast<double>(static_cast<std::int64_t>(x));
  return std::copysign(whole + static_cast<double>(x - whole >= 0.5), x);
}

/// Quantizes `value` onto a grid of `levels` + 1 codes spanning
/// [0, full_scale]; a `bits`-bit ADC has levels = 2^bits - 1. The code is
/// std::round's; `in_range` says the scaled value is known to lie where
/// round_in_range computes it.
double quantize_adc(double value, double levels, double full_scale,
                    bool in_range) {
  const double clamped = std::clamp(value, 0.0, full_scale);
  const double scaled = clamped / full_scale * levels;
  const double code = in_range ? round_in_range(scaled) : std::round(scaled);
  return code / levels * full_scale;
}

/// Keeps every sample: the SampledCapture that sample() returns.
class StoreSamples {
 public:
  StoreSamples(const Capture& capture, double dt) {
    out_.window_begin = capture.window_begin;
    out_.window_end = capture.window_end;
    out_.channels.reserve(capture.rails.size());
    // The timestamps every channel walks; the count sizes each channel's
    // samples once (dropout only ever leaves it short).
    for (double t = capture.window_begin; t <= capture.window_end; t += dt)
      ++ticks_;
  }
  void begin(const Channel& channel, double rate) {
    ChannelSamples& cs = out_.channels.emplace_back();
    cs.channel = channel;
    cs.effective_hz = rate;
    cs.samples.reserve(ticks_);
  }
  void add(double t, double volts, double amps) {
    out_.channels.back().samples.push_back(
        {.t = t, .volts = volts, .amps = amps});
  }
  [[nodiscard]] std::size_t end() const noexcept {
    return out_.channels.back().samples.size();
  }
  [[nodiscard]] SampledCapture take() { return std::move(out_); }

 private:
  SampledCapture out_;
  std::size_t ticks_ = 0;
};

/// Folds each sample into integrate_mean's sums as it is drawn: per
/// channel acc += volts * amps in sample order, then total += acc / count.
class MeanOfSamples {
 public:
  void begin(const Channel&, double) noexcept {
    acc_ = 0.0;
    count_ = 0;
  }
  void add(double, double volts, double amps) noexcept {
    acc_ += volts * amps;
    ++count_;
  }
  [[nodiscard]] std::size_t end() noexcept {
    if (count_ > 0) total_ += acc_ / static_cast<double>(count_);
    return count_;
  }
  [[nodiscard]] double total_watts() const noexcept { return total_; }

 private:
  double acc_ = 0.0;
  std::size_t count_ = 0;
  double total_ = 0.0;
};

void check_capture(const Capture& capture, const SamplerConfig& cfg) {
  if (capture.rails.empty())
    throw std::invalid_argument("sample: capture has no rails");
  if (capture.rails.size() > cfg.max_channels)
    throw std::invalid_argument("sample: more rails than sampler channels");
  if (!(capture.window_end > capture.window_begin))
    throw std::invalid_argument("sample: empty measurement window");
}

/// The one sampling loop: walks every rail's timestamps, draws dropout
/// and jitter, reads the trace and quantizes V and I, handing each kept
/// sample to `sink` in order.
template <typename Sink>
void sample_into(const Capture& capture, const SamplerConfig& cfg,
                 double rate, stats::Rng& rng, Sink& sink) {
  const double dt = 1.0 / rate;
  const double levels = std::exp2(cfg.adc_bits) - 1.0;
  const double amps_scale = cfg.adc_full_scale_amps;
  // Where every scaled current lies in [0, levels] and levels < 2^52, the
  // cast-based round is exact; otherwise std::round stays.
  const bool exact_round = levels >= 0.0 && levels < 0x1p52 &&
                           amps_scale > 0.0 &&
                           amps_scale < std::numeric_limits<double>::infinity();
  // Locals, so the loop keeps them (and the generator's state) in
  // registers instead of reloading them after every store.
  const double begin = capture.window_begin;
  const double end = capture.window_end;
  const double jitter_s = cfg.timestamp_jitter_s;
  const double dropout = cfg.dropout_rate;
  const bool quantize = cfg.quantize;
  for (const Capture::Rail& rail : capture.rails) {
    sink.begin(rail.channel, rate);
    TraceCursor trace(rail.trace);
    stats::Rng draws = rng;
    const double volts = rail.channel.nominal_volts;
    // The rail's voltage is constant, so its reading is too.
    const double volts_reading =
        quantize ? quantize_adc(volts, levels, cfg.adc_full_scale_volts,
                                false)
                 : volts;
    // Blocks of samples in two passes: the draws and the trace first,
    // then the ADC, whose dependent divisions then overlap across
    // samples.
    constexpr std::size_t kBlock = 64;
    double stamps[kBlock];
    double powers[kBlock];
    for (double t = begin; t <= end;) {
      std::size_t n = 0;
      for (; n < kBlock && t <= end; t += dt) {
        if (dropout > 0.0 && draws.uniform() < dropout)
          continue;  // sample lost in transit
        // The device is probed at a jittered true time but the record
        // keeps the nominal timestamp, as real sampling hardware does.
        const double jitter = draws.uniform(-jitter_s, jitter_s);
        stamps[n] = t;
        powers[n++] = trace.value(std::clamp(t + jitter, begin, end));
      }
      for (std::size_t i = 0; i < n; ++i) {
        double amps = volts > 0.0 ? powers[i] / volts : 0.0;
        if (quantize)
          amps = quantize_adc(amps, levels, amps_scale, exact_round);
        sink.add(stamps[i], volts_reading, amps);
      }
    }
    rng = draws;
    if (sink.end() == 0)
      throw std::invalid_argument("sample: window shorter than one period");
  }
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
  check_capture(capture, cfg);
  const double rate = effective_rate(cfg, capture.rails.size());
  StoreSamples sink(capture, 1.0 / rate);
  sample_into(capture, cfg, rate, rng, sink);
  return sink.take();
}

Measurement sample_mean(const Capture& capture, const SamplerConfig& cfg,
                        stats::Rng& rng) {
  check_capture(capture, cfg);
  MeanOfSamples sink;
  sample_into(capture, cfg, effective_rate(cfg, capture.rails.size()), rng,
              sink);
  const double span = capture.window_end - capture.window_begin;
  Measurement m;
  m.seconds = span;
  m.avg_watts = sink.total_watts();
  m.joules = sink.total_watts() * span;
  return m;
}

}  // namespace archline::powermon
