#include "powermon/integrator.hpp"

#include <stdexcept>

namespace archline::powermon {

Measurement integrate_mean(const SampledCapture& capture) {
  if (capture.channels.empty())
    throw std::invalid_argument("integrate_mean: no channels");
  const double span = capture.window_end - capture.window_begin;
  if (!(span > 0.0))
    throw std::invalid_argument("integrate_mean: empty window");

  double total_watts = 0.0;
  for (const ChannelSamples& ch : capture.channels) {
    if (ch.samples.empty())
      throw std::invalid_argument("integrate_mean: channel with no samples");
    double acc = 0.0;
    for (const Sample& s : ch.samples) acc += s.watts();
    total_watts += acc / static_cast<double>(ch.samples.size());
  }
  Measurement m;
  m.seconds = span;
  m.avg_watts = total_watts;
  m.joules = total_watts * span;
  return m;
}

}  // namespace archline::powermon
