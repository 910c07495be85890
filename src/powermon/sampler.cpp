#include "powermon/sampler.hpp"

#include <algorithm>
#include <bit>
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

/// More ticks than any window has: an answer that never changes.
constexpr std::uint64_t kForever = std::uint64_t{1} << 62;

/// How many more ticks a probe span's answer "not flat" holds when the
/// span's start is `room` seconds from where the answer could change.
/// Each tick moves both ends of [max(t - m, begin), min(t + m, end)] up
/// by at most dt plus the rounding of t += dt and t +- m, under 2^-12 dt
/// while dt > 2^-40 of the times the ticks reach (|begin|, |end|, dt and
/// m); counting half of room / dt leaves the other half to cover it.
std::uint64_t holds_for(double room, double dt) noexcept {
  const double ticks = room / (2.0 * dt);
  if (ticks >= 0x1p62) return kForever;
  return ticks >= 1.0 ? static_cast<std::uint64_t>(ticks) : 0;
}

/// Validates the capture and the configuration and returns the effective
/// per-channel rate.
double check_capture(const Capture& capture, const SamplerConfig& cfg) {
  if (capture.rails.empty())
    throw std::invalid_argument("sample: capture has no rails");
  if (capture.rails.size() > cfg.max_channels)
    throw std::invalid_argument("sample: more rails than sampler channels");
  if (!(capture.window_end > capture.window_begin))
    throw std::invalid_argument("sample: empty measurement window");
  const double rate = effective_rate(cfg, capture.rails.size());
  if (!(rate > 0.0) || !std::isfinite(rate))
    throw std::invalid_argument("sample: rate must be positive and finite");
  const double jitter = cfg.timestamp_jitter_s;
  if (!(jitter >= 0.0) || !std::isfinite(jitter))
    throw std::invalid_argument("sample: jitter must be >= 0 and finite");
  if (cfg.quantize && cfg.adc_bits < 1)
    throw std::invalid_argument("sample: ADC needs at least one bit");
  return rate;
}

/// The one sampling loop: walks every rail's timestamps, draws dropout
/// and jitter, reads the trace and quantizes V and I, handing each kept
/// sample to `sink` in order. A sample whose every possible probe lies in
/// one constant region of the trace reads that region's value and skips
/// its jitter draw with Rng::advance instead of drawing it; without
/// dropout, the ticks after it that stay in that region are one tight
/// loop.
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
  const bool lossy = dropout > 0.0;
  const bool quantize = cfg.quantize;
  // A draw of uniform(-J, J) rounds into [-J, J], so t + jitter rounds
  // into [t - 2J, t + 2J] with room to spare. No sample takes the flat
  // path where holds_for's bound needs more than the times reach: where
  // 2J is huge a draw can even give a NaN probe.
  const double margin = 2.0 * jitter_s;
  const double reach = std::max(std::abs(begin), std::abs(end)) + dt + margin;
  const bool flat_path = reach < 0x1p1000 && dt > 0x1p-40 * reach;
  for (const Capture::Rail& rail : capture.rails) {
    sink.begin(rail.channel, rate);
    TraceCursor trace(rail.trace);
    stats::Rng draws = rng;
    // Outputs owed by flat samples, skipped in one jump before the next
    // real draw.
    std::uint64_t skipped = 0;
    const auto settle = [&draws, &skipped] {
      if (skipped > 0) {
        draws.advance(skipped);
        skipped = 0;
      }
    };
    const double volts = rail.channel.nominal_volts;
    // The rail's voltage is constant, so its reading is too.
    const double volts_reading =
        quantize ? quantize_adc(volts, levels, cfg.adc_full_scale_volts,
                                false)
                 : volts;
    const auto read_amps = [&](double watts) {
      const double amps = volts > 0.0 ? watts / volts : 0.0;
      return quantize ? quantize_adc(amps, levels, amps_scale, exact_round)
                      : amps;
    };
    // The ADC's last power bits and the current they read: repeats of one
    // power divide once.
    std::uint64_t memo_bits = std::bit_cast<std::uint64_t>(0.0);
    double memo_amps = read_amps(0.0);
    const auto adc = [&](double watts) {
      const auto bits = std::bit_cast<std::uint64_t>(watts);
      if (bits != memo_bits) {
        memo_bits = bits;
        memo_amps = read_amps(watts);
      }
      return memo_amps;
    };
    // Blocks of samples in two passes: the draws and the trace first,
    // then the ADC, whose dependent divisions then overlap across
    // samples.
    constexpr std::size_t kBlock = 64;
    double stamps[kBlock];
    double powers[kBlock];
    // For how many more ticks the last tested tick's answer "not flat"
    // holds: on a ramp, most ticks skip the test.
    std::uint64_t holds = flat_path ? 0 : kForever;
    for (double t = begin; t <= end;) {
      // Set when the block ends at a tick that starts a flat run: the
      // run's region.
      const TraceCursor::Region* run = nullptr;
      std::size_t n = 0;
      for (; n < kBlock && t <= end; t += dt) {
        bool flat = false;
        double watts = 0.0;
        if (holds > 0) {
          --holds;
        } else {
          const double a = std::max(t - margin, begin);
          const double b = std::min(t + margin, end);
          const TraceCursor::Region& r = trace.region(a);
          flat = a >= r.from && b <= r.to;
          watts = r.watts;
          if (flat && !lossy) {
            run = &r;
            break;
          }
          // The distance the span's start can move before the answer
          // may change: to the region's start, or past its end.
          if (!flat) holds = holds_for(a < r.from ? r.from - a : r.to - a, dt);
        }
        if (lossy) {
          settle();
          if (draws.uniform() < dropout) continue;  // sample lost in transit
        }
        if (flat) {
          skipped += 2;  // the two outputs of the jitter's uniform()
        } else {
          settle();
          // The device is probed at a jittered true time but the record
          // keeps the nominal timestamp, as real sampling hardware does.
          const double jitter = draws.uniform(-jitter_s, jitter_s);
          watts = trace.value(std::clamp(t + jitter, begin, end));
        }
        stamps[n] = t;
        powers[n++] = watts;
      }
      for (std::size_t i = 0; i < n; ++i)
        sink.add(stamps[i], volts_reading, adc(powers[i]));
      if (run == nullptr) continue;
      // The flat run from t: a later tick's span [max(t - m, begin),
      // min(t + m, end)] starts no earlier, so it stays in the region
      // exactly while its end does, which are the ticks the test above
      // would call flat. The run holds t itself, so the body runs first:
      // a loop that might run no tick leaves the sink's sums in memory,
      // reloaded every tick.
      const double to = run->to;
      const double amps = adc(run->watts);
      std::uint64_t k = 0;
      do {
        sink.add(t, volts_reading, amps);
        t += dt;
        ++k;
      } while (t <= end && (end <= to || t + margin <= to));
      skipped += 2 * k;
    }
    settle();
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
  const double rate = check_capture(capture, cfg);
  StoreSamples sink(capture, 1.0 / rate);
  sample_into(capture, cfg, rate, rng, sink);
  return sink.take();
}

Measurement sample_mean(const Capture& capture, const SamplerConfig& cfg,
                        stats::Rng& rng) {
  const double rate = check_capture(capture, cfg);
  MeanOfSamples sink;
  sample_into(capture, cfg, rate, rng, sink);
  const double span = capture.window_end - capture.window_begin;
  Measurement m;
  m.seconds = span;
  m.avg_watts = sink.total_watts();
  m.joules = sink.total_watts() * span;
  return m;
}

}  // namespace archline::powermon
