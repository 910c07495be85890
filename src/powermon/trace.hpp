#pragma once
// PowerTrace: continuous-time instantaneous power of one rail, represented
// as a piecewise-linear function of time. This is the simulator's ground
// truth; the Sampler discretizes it the way PowerMon 2 would.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "powermon/channel.hpp"

namespace archline::powermon {

/// A (time, power) breakpoint.
struct TracePoint {
  double t = 0.0;      ///< seconds since capture start
  double watts = 0.0;  ///< instantaneous power
};

/// Power at `t` on the segment from `lo` to the first breakpoint `hi`
/// after t. PowerTrace::value and TraceCursor::value share it.
[[nodiscard]] inline double interpolate(const TracePoint& lo,
                                        const TracePoint& hi,
                                        double t) noexcept {
  if (hi.t == lo.t) return hi.watts;
  const double frac = (t - lo.t) / (hi.t - lo.t);
  return lo.watts + frac * (hi.watts - lo.watts);
}

/// Piecewise-linear power over time. Breakpoints must be added in
/// non-decreasing time order; between breakpoints power interpolates
/// linearly, outside the span it extrapolates as constant.
class PowerTrace {
 public:
  PowerTrace() = default;

  /// Appends a breakpoint; throws std::invalid_argument if time goes
  /// backwards or power is negative/non-finite.
  void add_point(double t, double watts);

  /// Appends a constant-power segment of the given duration starting at
  /// the current end (or t = 0 if empty).
  void add_constant(double duration, double watts);

  /// Appends a linear ramp from the current end power to `watts` over
  /// `duration`.
  void add_ramp(double duration, double watts);

  /// Instantaneous power at time t.
  [[nodiscard]] double value(double t) const noexcept;

  /// Exact integral of power over [t0, t1] (analytic, trapezoid on the
  /// piecewise-linear segments) — the true energy in joules.
  [[nodiscard]] double integral(double t0, double t1) const noexcept;

  /// Full-span exact energy.
  [[nodiscard]] double total_energy() const noexcept;

  [[nodiscard]] double start_time() const noexcept;
  [[nodiscard]] double end_time() const noexcept;
  [[nodiscard]] double duration() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] const std::vector<TracePoint>& points() const noexcept {
    return points_;
  }

  /// Returns a copy with every power value scaled by `factor` (rail
  /// splitting).
  [[nodiscard]] PowerTrace scaled(double factor) const;

 private:
  std::vector<TracePoint> points_;
};

/// Evaluates one trace at a stream of nearby times, bit for bit as
/// PowerTrace::value does, by walking a segment index from the previous
/// query instead of binary-searching the breakpoints each time. It also
/// finds the stretches where the trace is constant (region()). The trace
/// must outlive the cursor and not change while it is in use.
class TraceCursor {
 public:
  /// A closed span of times [from, to] over which trace.value() is
  /// `watts`, bit for bit. An open end is stored as the adjacent double.
  struct Region {
    double from = std::numeric_limits<double>::infinity();
    double to = -std::numeric_limits<double>::infinity();
    double watts = 0.0;
  };

  explicit TraceCursor(const PowerTrace& trace) noexcept
      : points_(trace.points().data()), count_(trace.points().size()) {}

  /// The constant region that holds `a`, or else the first one after it.
  /// The regions are: at or before the first breakpoint; at or after the
  /// last one (strictly after it, when every breakpoint shares one time);
  /// and strictly inside a segment whose two ends have equal watts, where
  /// interpolate() gives lo.watts + 0.0 for any finite frac. So a span
  /// [a, b] with a >= from and b <= to reads `watts` everywhere; a span
  /// with a < from, or with a <= to < b, lies in no one region. The answer
  /// is cached, so a stream of queries with non-decreasing `a` walks every
  /// breakpoint at most once and otherwise costs two compares.
  [[nodiscard]] const Region& region(double a) noexcept {
    if (!(a >= known_from_ && a <= region_.to)) locate(a);
    return region_;
  }

  /// Equals trace.value(t).
  [[nodiscard]] double value(double t) noexcept {
    if (count_ == 0) return 0.0;
    if (t <= points_[0].t) return points_[0].watts;
    if (t >= points_[count_ - 1].t) return points_[count_ - 1].watts;
    // Restore points_[hi_ - 1].t <= t < points_[hi_].t: hi_ is then the
    // first breakpoint strictly after t, as value()'s upper_bound finds.
    while (points_[hi_].t <= t) ++hi_;
    while (points_[hi_ - 1].t > t) --hi_;
    return interpolate(points_[hi_ - 1], points_[hi_], t);
  }

 private:
  /// Caches the region that holds `a`, or else the next one after it.
  /// Inline and free of library calls, like the rest of the cursor, so
  /// the sampling loop makes no call and keeps its state in registers.
  void locate(double a) noexcept;

  /// The adjacent doubles above and below a finite `x`, as
  /// std::nextafter toward +inf and -inf gives them.
  static double next_up(double x) noexcept {
    if (x == 0.0) return std::numeric_limits<double>::denorm_min();
    const auto bits = std::bit_cast<std::uint64_t>(x);
    return std::bit_cast<double>(x > 0.0 ? bits + 1 : bits - 1);
  }
  static double next_down(double x) noexcept { return -next_up(-x); }

  const TracePoint* points_;
  std::size_t count_;
  std::size_t hi_ = 1;
  // The cached region. No other region starts in [known_from_,
  // region_.to], so it answers every query there; the initial empty
  // region answers none.
  Region region_;
  double known_from_ = std::numeric_limits<double>::infinity();
  std::size_t seg_ = 0;  ///< segment points_[seg_] -> points_[seg_ + 1]
};

inline void TraceCursor::locate(double a) noexcept {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const TracePoint* p = points_;
  const auto cache = [this](double from, double to, double watts,
                            double known_from) {
    region_ = {.from = from, .to = to, .watts = watts};
    known_from_ = known_from;
  };
  if (count_ == 0) return cache(-inf, inf, 0.0, -inf);
  const TracePoint& first = p[0];
  const TracePoint& last = p[count_ - 1];
  // value() tests t <= first.t before t >= last.t, so when every
  // breakpoint shares one time the last region starts just after it.
  const double last_from = last.t > first.t ? last.t : next_up(last.t);
  if (a <= first.t) return cache(-inf, first.t, first.watts, -inf);
  if (a >= last_from) return cache(last_from, inf, last.watts, last_from);
  if (!(a < last_from)) return cache(inf, -inf, 0.0, inf);  // NaN
  // first.t < a < last.t: move seg_ to p[seg_].t < a <= p[seg_ + 1].t.
  while (p[seg_ + 1].t < a) ++seg_;
  while (p[seg_].t >= a) --seg_;
  const auto flat = [p](std::size_t k) {
    return p[k].t < p[k + 1].t && p[k].watts == p[k + 1].watts;
  };
  if (a < p[seg_ + 1].t && flat(seg_)) {
    const double from = next_up(p[seg_].t);
    return cache(from, next_down(p[seg_ + 1].t), p[seg_].watts + 0.0, from);
  }
  // `a` is in no region: the next one is the first flat segment after it,
  // or else the last region.
  std::size_t k = seg_ + 1;
  while (k + 1 < count_ && !flat(k)) ++k;
  if (k + 1 < count_)
    return cache(next_up(p[k].t), next_down(p[k + 1].t), p[k].watts + 0.0,
                 a);
  cache(last_from, inf, last.watts, a);
}

/// A capture: one trace per measured rail plus the workload window the
/// measurement covers.
struct Capture {
  struct Rail {
    Channel channel;
    PowerTrace trace;
  };
  std::vector<Rail> rails;
  double window_begin = 0.0;  ///< start of the timed kernel region [s]
  double window_end = 0.0;    ///< end of the timed kernel region [s]

  /// Exact total energy across rails over the kernel window.
  [[nodiscard]] double true_energy() const noexcept;

  /// Exact average power across rails over the kernel window.
  [[nodiscard]] double true_avg_power() const noexcept;
};

/// Splits a single device trace across rails according to the split
/// fractions (which must sum to ~1), producing a Capture.
[[nodiscard]] Capture split_across_rails(const PowerTrace& device,
                                         const std::vector<RailSplit>& rails,
                                         double window_begin,
                                         double window_end);

}  // namespace archline::powermon
