#pragma once
// PowerTrace: continuous-time instantaneous power of one rail, represented
// as a piecewise-linear function of time. This is the simulator's ground
// truth; the Sampler discretizes it the way PowerMon 2 would.

#include <cstddef>
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
/// query instead of binary-searching the breakpoints each time. The
/// trace must outlive the cursor and not change while it is in use.
class TraceCursor {
 public:
  explicit TraceCursor(const PowerTrace& trace) noexcept
      : points_(trace.points().data()), count_(trace.points().size()) {}

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
  const TracePoint* points_;
  std::size_t count_;
  std::size_t hi_ = 1;
};

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
