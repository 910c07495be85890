#include "fit/objective.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/roofline.hpp"

namespace archline::fit {

ObservationColumns::ObservationColumns(
    std::span<const microbench::Observation> obs) {
  // Identical bits in give identical model terms out, so the repeats of
  // a kernel share them wherever they sit in `obs`.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> index;
  kernel_of_.reserve(obs.size());
  for (const microbench::Observation& o : obs) {
    const auto [it, added] =
        index.try_emplace({std::bit_cast<std::uint64_t>(o.kernel.flops),
                           std::bit_cast<std::uint64_t>(o.kernel.bytes)},
                          kernels_.size());
    if (added) kernels_.push_back({o.kernel.flops, o.kernel.bytes, {}, 0, 0});
    kernel_of_.push_back(it->second);
    // Welford's update of each quantity's mean and spread of a = 1/y;
    // until the end, root_count holds n and root_spread the spread.
    const double a[3] = {1.0 / o.seconds, 1.0 / o.joules, 1.0 / o.watts};
    for (std::size_t q = 0; q < 3; ++q) {
      Moments& mo = kernels_[it->second].moments[q];
      mo.root_count += 1.0;
      const double d = a[q] - mo.mean;
      mo.mean += d / mo.root_count;
      mo.root_spread += d * (a[q] - mo.mean);
    }
  }
  for (Kernel& k : kernels_)
    for (Moments& mo : k.moments) {
      mo.root_count = std::sqrt(mo.root_count);
      mo.root_spread = std::sqrt(mo.root_spread);
    }
}

void ObservationColumns::evaluate(const core::MachineParams& m) {
  for (Kernel& k : kernels_) {
    k.time = core::time(m, {k.flops, k.bytes});
    k.energy = k.flops * m.eps_flop + k.bytes * m.eps_mem + m.pi1 * k.time;
  }
}

/// Evaluates the model, then hands `visit` every row in row order.
template <typename Visit>
void ObservationColumns::for_each_row(const core::MachineParams& m,
                                      Visit visit) {
  evaluate(m);
  for (const Kernel& k : kernels_) {
    const double model[3] = {k.time, k.energy, k.energy / k.time};
    for (std::size_t q = 0; q < 3; ++q) {
      const Moments& mo = k.moments[q];
      visit(mo.root_count * (model[q] * mo.mean - 1.0));
      visit(model[q] * mo.root_spread);
    }
  }
}

void ObservationColumns::residuals(const core::MachineParams& m,
                                   std::span<double> out) {
  if (out.size() < rows())
    throw std::invalid_argument("residuals: output span too short");
  std::size_t i = 0;
  for_each_row(m, [&](double r) { out[i++] = r; });
}

double ObservationColumns::sum_squared_residuals(
    const core::MachineParams& m) {
  double acc = 0.0;
  for_each_row(m, [&](double r) { acc += r * r; });
  return acc;
}

PredictionErrors prediction_errors(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs) {
  PredictionErrors e;
  e.time.reserve(obs.size());
  e.energy.reserve(obs.size());
  e.power.reserve(obs.size());
  e.performance.reserve(obs.size());
  for (const microbench::Observation& o : obs) {
    const core::Workload w = o.kernel.workload();
    const double t_model = core::time(m, w);
    const double e_model = core::energy(m, w);
    const double p_model = core::avg_power(m, w);
    e.time.push_back(t_model / o.seconds - 1.0);
    e.energy.push_back(e_model / o.joules - 1.0);
    e.power.push_back(p_model / o.watts - 1.0);
    // Performance prediction error: (W/T_model) / (W/t) - 1.
    e.performance.push_back(o.seconds / t_model - 1.0);
  }
  return e;
}

MeasuredThroughput measure_throughput(
    std::span<const microbench::Observation> obs) {
  if (obs.empty())
    throw std::invalid_argument("measure_throughput: no observations");
  // Average repeats of the same kernel first (noise de-biasing: a raw min
  // over noisy repeats is systematically fast), then take the best kernel.
  struct Acc {
    double t_per_flop = 0.0;
    double t_per_byte = 0.0;
    int count = 0;
  };
  std::map<std::string, Acc> by_kernel;
  for (const microbench::Observation& o : obs) {
    Acc& a = by_kernel[o.kernel.label];
    if (o.kernel.flops > 0.0) a.t_per_flop += o.seconds / o.kernel.flops;
    if (o.kernel.bytes > 0.0) a.t_per_byte += o.seconds / o.kernel.bytes;
    ++a.count;
  }
  MeasuredThroughput t;
  t.tau_flop = std::numeric_limits<double>::infinity();
  t.tau_mem = std::numeric_limits<double>::infinity();
  for (const auto& [label, acc] : by_kernel) {
    if (acc.count == 0) continue;
    if (acc.t_per_flop > 0.0)
      t.tau_flop = std::min(t.tau_flop, acc.t_per_flop / acc.count);
    if (acc.t_per_byte > 0.0)
      t.tau_mem = std::min(t.tau_mem, acc.t_per_byte / acc.count);
  }
  if (!std::isfinite(t.tau_flop) || !std::isfinite(t.tau_mem))
    throw std::invalid_argument(
        "measure_throughput: need both flop and byte work in the sweep");
  return t;
}

}  // namespace archline::fit
