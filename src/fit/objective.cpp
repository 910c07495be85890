#include "fit/objective.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
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

// Two lanes of doubles. GCC and Clang lower these to SSE2 on x86-64 and
// to the target's own vectors (or scalar pairs) elsewhere; every
// operation is the IEEE one the scalar code performs, per lane.
using f64x2 = double __attribute__((vector_size(16)));

f64x2 load2(const double* p) noexcept {
  f64x2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store2(double* p, f64x2 v) noexcept { std::memcpy(p, &v, sizeof v); }

f64x2 splat(double x) noexcept { return f64x2{x, x}; }

/// Per lane (r < b) ? b : r — the step std::max({...}) takes for each
/// later argument, so the first maximum wins and a NaN behaves as there.
f64x2 keep_max(f64x2 r, f64x2 b) noexcept {
  auto take = r < b;  // all-ones lanes where b is taken
  using Bits = decltype(take);
  return reinterpret_cast<f64x2>((take & reinterpret_cast<Bits>(b)) |
                                 (~take & reinterpret_cast<Bits>(r)));
}

bool same_bits(double a, double b) noexcept {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

ObservationColumns::ObservationColumns(
    std::span<const microbench::Observation> obs)
    : size_(obs.size()) {
  const std::size_t padded = obs.size() + obs.size() % 2;
  kernel_.reserve(padded);
  seconds_.reserve(padded);
  joules_.reserve(padded);
  watts_.reserve(padded);
  for (const microbench::Observation& o : obs) {
    // Identical bits in give identical model terms out, so a repeat can
    // reuse its kernel's.
    if (flops_.empty() || !same_bits(o.kernel.flops, flops_.back()) ||
        !same_bits(o.kernel.bytes, bytes_.back())) {
      flops_.push_back(o.kernel.flops);
      bytes_.push_back(o.kernel.bytes);
    }
    kernel_.push_back(flops_.size() - 1);
    seconds_.push_back(o.seconds);
    joules_.push_back(o.joules);
    watts_.push_back(o.watts);
  }
  // Pad with copies so the odd lane computes ordinary values nobody reads.
  if (kernel_.size() % 2 != 0) {
    kernel_.push_back(kernel_.back());
    seconds_.push_back(seconds_.back());
    joules_.push_back(joules_.back());
    watts_.push_back(watts_.back());
  }
  if (flops_.size() % 2 != 0) {
    flops_.push_back(flops_.back());
    bytes_.push_back(bytes_.back());
  }
  time_.resize(flops_.size());
  energy_.resize(flops_.size());
  power_.resize(flops_.size());
}

/// Computes every kernel's model terms, then hands `visit` the residuals
/// of observations i and i + 1 as lanes, for i = 0, 2, 4, ...
template <typename Visit>
void ObservationColumns::for_each_pair(const core::MachineParams& m,
                                       Visit visit) {
  const f64x2 tau_flop = splat(m.tau_flop);
  const f64x2 tau_mem = splat(m.tau_mem);
  const f64x2 eps_flop = splat(m.eps_flop);
  const f64x2 eps_mem = splat(m.eps_mem);
  const f64x2 pi1 = splat(m.pi1);
  const f64x2 delta_pi = splat(m.delta_pi);
  const bool capped = !m.uncapped();
  for (std::size_t k = 0; k < flops_.size(); k += 2) {
    const f64x2 w = load2(&flops_[k]);
    const f64x2 q = load2(&bytes_[k]);
    const f64x2 active = w * eps_flop + q * eps_mem;
    const f64x2 t_cap = capped ? active / delta_pi : splat(0.0);
    const f64x2 t = keep_max(keep_max(w * tau_flop, q * tau_mem), t_cap);
    const f64x2 e = active + pi1 * t;
    store2(&time_[k], t);
    store2(&energy_[k], e);
    store2(&power_[k], e / t);
  }
  const f64x2 one = splat(1.0);
  for (std::size_t i = 0; i < kernel_.size(); i += 2) {
    const std::size_t a = kernel_[i];
    const std::size_t b = kernel_[i + 1];
    visit(i, f64x2{time_[a], time_[b]} / load2(&seconds_[i]) - one,
          f64x2{energy_[a], energy_[b]} / load2(&joules_[i]) - one,
          f64x2{power_[a], power_[b]} / load2(&watts_[i]) - one);
  }
}

void ObservationColumns::residuals(const core::MachineParams& m,
                                   std::span<double> out) {
  if (out.size() < 3 * size_)
    throw std::invalid_argument("residuals: output span too short");
  for_each_pair(m, [&](std::size_t i, f64x2 rt, f64x2 re, f64x2 rp) {
    for (std::size_t lane = 0; lane < 2 && i + lane < size_; ++lane) {
      double* r = &out[3 * (i + lane)];
      r[0] = rt[lane];
      r[1] = re[lane];
      r[2] = rp[lane];
    }
  });
}

double ObservationColumns::sum_squared_residuals(
    const core::MachineParams& m) {
  double acc = 0.0;
  for_each_pair(m, [&](std::size_t i, f64x2 rt, f64x2 re, f64x2 rp) {
    const f64x2 st = rt * rt;
    const f64x2 se = re * re;
    const f64x2 sp = rp * rp;
    acc += st[0];
    acc += se[0];
    acc += sp[0];
    if (i + 1 < size_) {
      acc += st[1];
      acc += se[1];
      acc += sp[1];
    }
  });
  return acc;
}

std::vector<double> time_energy_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs) {
  std::vector<double> r(3 * obs.size());
  ObservationColumns(obs).residuals(m, r);
  return r;
}

double sum_squared_residuals(const core::MachineParams& m,
                             std::span<const microbench::Observation> obs) {
  return ObservationColumns(obs).sum_squared_residuals(m);
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
