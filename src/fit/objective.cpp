#include "fit/objective.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "core/roofline.hpp"

namespace archline::fit {

std::size_t parameter_count(ModelKind kind) noexcept {
  return kind == ModelKind::Capped ? 6 : 5;
}

std::vector<double> pack(const core::MachineParams& m, ModelKind kind) {
  std::vector<double> x = {std::log(m.tau_flop), std::log(m.eps_flop),
                           std::log(m.tau_mem), std::log(m.eps_mem),
                           std::log(std::max(m.pi1, 1e-6))};
  if (kind == ModelKind::Capped) x.push_back(std::log(m.delta_pi));
  return x;
}

core::MachineParams unpack(std::span<const double> x, ModelKind kind) {
  if (x.size() != parameter_count(kind))
    throw std::invalid_argument("unpack: wrong parameter count");
  core::MachineParams m;
  m.tau_flop = std::exp(x[0]);
  m.eps_flop = std::exp(x[1]);
  m.tau_mem = std::exp(x[2]);
  m.eps_mem = std::exp(x[3]);
  m.pi1 = std::exp(x[4]);
  m.delta_pi = kind == ModelKind::Capped ? std::exp(x[5]) : core::kUncapped;
  return m;
}

namespace {

/// The (t, e, p) relative residuals of one observation. energy() would
/// call time() a second time; this evaluates it once and then the same
/// expression energy() does, W eps_flop + Q eps_mem + pi1 t, so every bit
/// matches the time()/energy() pair.
struct Residuals {
  double t, e, p;
};

inline Residuals residuals(const core::MachineParams& m,
                           const microbench::Observation& o) noexcept {
  const core::Workload w = o.kernel.workload();
  const double t_model = core::time(m, w);
  const double e_model =
      w.flops * m.eps_flop + w.bytes * m.eps_mem + m.pi1 * t_model;
  return {t_model / o.seconds - 1.0, e_model / o.joules - 1.0,
          (e_model / t_model) / o.watts - 1.0};
}

}  // namespace

void append_time_energy_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs, std::vector<double>& out) {
  for (const microbench::Observation& o : obs) {
    const Residuals r = residuals(m, o);
    out.push_back(r.t);
    out.push_back(r.e);
    out.push_back(r.p);
  }
}

std::vector<double> time_energy_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs) {
  std::vector<double> r;
  r.reserve(3 * obs.size());
  append_time_energy_residuals(m, obs, r);
  return r;
}

double sum_squared_residuals(const core::MachineParams& m,
                             std::span<const microbench::Observation> obs) {
  double acc = 0.0;
  for (const microbench::Observation& o : obs) {
    const Residuals r = residuals(m, o);
    acc += r.t * r.t;
    acc += r.e * r.e;
    acc += r.p * r.p;
  }
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

core::MachineParams initial_guess(
    std::span<const microbench::Observation> obs, ModelKind kind) {
  if (obs.size() < 4)
    throw std::invalid_argument("initial_guess: need >= 4 observations");

  double tau_flop = std::numeric_limits<double>::infinity();
  double tau_mem = std::numeric_limits<double>::infinity();
  double min_watts = std::numeric_limits<double>::infinity();
  double max_watts = 0.0;
  const microbench::Observation* lo_i = &obs.front();
  const microbench::Observation* hi_i = &obs.front();
  for (const microbench::Observation& o : obs) {
    if (o.kernel.flops > 0.0)
      tau_flop = std::min(tau_flop, o.seconds / o.kernel.flops);
    if (o.kernel.bytes > 0.0)
      tau_mem = std::min(tau_mem, o.seconds / o.kernel.bytes);
    min_watts = std::min(min_watts, o.watts);
    max_watts = std::max(max_watts, o.watts);
    if (o.intensity() < lo_i->intensity()) lo_i = &o;
    if (o.intensity() > hi_i->intensity()) hi_i = &o;
  }

  core::MachineParams m;
  m.tau_flop = tau_flop;
  m.tau_mem = tau_mem;
  m.pi1 = 0.7 * min_watts;
  m.delta_pi = kind == ModelKind::Capped
                   ? std::max(max_watts - m.pi1, 0.05 * max_watts)
                   : core::kUncapped;

  // Energy constants from the sweep extremes: at high intensity nearly all
  // active energy is flops; at low intensity nearly all is traffic.
  const double ef_est =
      (hi_i->joules - m.pi1 * hi_i->seconds) / std::max(hi_i->kernel.flops,
                                                        1.0);
  m.eps_flop = std::max(ef_est, 1e-15);
  const double em_est = (lo_i->joules - m.pi1 * lo_i->seconds -
                         m.eps_flop * lo_i->kernel.flops) /
                        std::max(lo_i->kernel.bytes, 1.0);
  m.eps_mem = std::max(em_est, 1e-15);
  m.validate("initial_guess");
  return m;
}

}  // namespace archline::fit
