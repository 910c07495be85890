#include "powermon/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace archline::powermon {

void PowerTrace::add_point(double t, double watts) {
  if (!std::isfinite(t) || !std::isfinite(watts))
    throw std::invalid_argument("PowerTrace: non-finite point");
  if (watts < 0.0)
    throw std::invalid_argument("PowerTrace: negative power");
  if (!points_.empty() && t < points_.back().t)
    throw std::invalid_argument("PowerTrace: time must be non-decreasing");
  points_.push_back(TracePoint{.t = t, .watts = watts});
}

void PowerTrace::add_constant(double duration, double watts) {
  if (!(duration >= 0.0))
    throw std::invalid_argument("PowerTrace: negative duration");
  const double t0 = points_.empty() ? 0.0 : points_.back().t;
  add_point(t0, watts);
  add_point(t0 + duration, watts);
}

void PowerTrace::add_ramp(double duration, double watts) {
  if (!(duration >= 0.0))
    throw std::invalid_argument("PowerTrace: negative duration");
  if (points_.empty())
    throw std::invalid_argument("PowerTrace: ramp needs a starting point");
  add_point(points_.back().t + duration, watts);
}

double PowerTrace::value(double t) const noexcept {
  if (points_.empty()) return 0.0;
  if (t <= points_.front().t) return points_.front().watts;
  if (t >= points_.back().t) return points_.back().watts;
  // First breakpoint strictly after t.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](double value, const TracePoint& p) { return value < p.t; });
  return interpolate(*(it - 1), *it, t);
}

double PowerTrace::integral(double t0, double t1) const noexcept {
  if (points_.empty() || !(t1 > t0)) return 0.0;
  double acc = 0.0;
  // Collect segment boundaries clipped to [t0, t1]; the function is linear
  // between consecutive clipped breakpoints, so trapezoid is exact.
  double prev_t = t0;
  double prev_w = value(t0);
  for (const TracePoint& p : points_) {
    if (p.t <= t0) continue;
    if (p.t >= t1) break;
    acc += 0.5 * (prev_w + value(p.t)) * (p.t - prev_t);
    prev_t = p.t;
    prev_w = value(p.t);
  }
  acc += 0.5 * (prev_w + value(t1)) * (t1 - prev_t);
  return acc;
}

double PowerTrace::total_energy() const noexcept {
  return integral(start_time(), end_time());
}

double PowerTrace::start_time() const noexcept {
  return points_.empty() ? 0.0 : points_.front().t;
}

double PowerTrace::end_time() const noexcept {
  return points_.empty() ? 0.0 : points_.back().t;
}

double PowerTrace::duration() const noexcept {
  return end_time() - start_time();
}

PowerTrace PowerTrace::scaled(double factor) const {
  if (!(factor >= 0.0))
    throw std::invalid_argument("PowerTrace::scaled: negative factor");
  PowerTrace out;
  for (const TracePoint& p : points_) out.add_point(p.t, p.watts * factor);
  return out;
}

double Capture::true_energy() const noexcept {
  double acc = 0.0;
  for (const Rail& r : rails) acc += r.trace.integral(window_begin, window_end);
  return acc;
}

double Capture::true_avg_power() const noexcept {
  const double span = window_end - window_begin;
  if (!(span > 0.0)) return 0.0;
  return true_energy() / span;
}

Capture split_across_rails(const PowerTrace& device,
                           const std::vector<RailSplit>& rails,
                           double window_begin, double window_end) {
  if (rails.empty())
    throw std::invalid_argument("split_across_rails: no rails");
  double total = 0.0;
  for (const RailSplit& r : rails) total += r.fraction;
  if (std::abs(total - 1.0) > 1e-6)
    throw std::invalid_argument(
        "split_across_rails: fractions must sum to 1");
  Capture cap;
  cap.window_begin = window_begin;
  cap.window_end = window_end;
  cap.rails.reserve(rails.size());
  for (const RailSplit& r : rails)
    cap.rails.push_back(Capture::Rail{.channel = r.channel,
                                      .trace = device.scaled(r.fraction)});
  return cap;
}

}  // namespace archline::powermon
