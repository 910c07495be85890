#include "core/kernels.hpp"

#include "core/kernels_impl.hpp"

namespace archline::core {

void PredictionBatch::resize(std::size_t n) {
  intensity.resize(n);
  time_s.resize(n);
  energy_j.resize(n);
  avg_power_w.resize(n);
  performance.resize(n);
  efficiency.resize(n);
  regime.resize(n);
}

void MetricCurve::resize(std::size_t n) {
  power.resize(n);
  performance.resize(n);
  efficiency.resize(n);
  regime.resize(n);
}

namespace {

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

bool avx2_available() noexcept {
  static const bool ok = avx2_compiled_in() && cpu_has_avx2();
  return ok;
}

void predict_batch_scalar(const MachineParams& m, const WorkloadBatch& in,
                          PredictionBatch& out) {
  const std::size_t n = in.size();
  out.resize(n);
  const detail::PredictConsts c(m);
  detail::predict_rows(c, in.flops.data(), in.bytes.data(), n,
                       out.intensity.data(), out.time_s.data(),
                       out.energy_j.data(), out.avg_power_w.data(),
                       out.performance.data(), out.efficiency.data(),
                       out.regime.data());
}

void metric_curves_scalar(const MachineParams& m,
                          std::span<const double> intensities,
                          MetricCurve& out) {
  const std::size_t n = intensities.size();
  out.resize(n);
  const detail::CurveConsts c(m);
  detail::curve_rows(c, intensities.data(), n, out.power.data(),
                     out.performance.data(), out.efficiency.data(),
                     out.regime.data());
}

void predict_batch(const MachineParams& m, const WorkloadBatch& in,
                   PredictionBatch& out) {
  if (avx2_available())
    predict_batch_avx2(m, in, out);
  else
    predict_batch_scalar(m, in, out);
}

void metric_curves(const MachineParams& m, std::span<const double> intensities,
                   MetricCurve& out) {
  if (avx2_available())
    metric_curves_avx2(m, intensities, out);
  else
    metric_curves_scalar(m, intensities, out);
}

namespace {

/// SoA chunk width for the machine-batch metric kernel. 16 doubles per
/// field keeps every working array in L1 while giving the
/// auto-vectorizer full-width loops.
constexpr std::size_t kMachineChunk = 16;

void power_machines_chunk(const MachineParams* ms, std::size_t n,
                          double intensity, double* out) {
  double pi1[kMachineChunk], pi_flop[kMachineChunk], pi_mem[kMachineChunk];
  double tb[kMachineChunk], b_hi[kMachineChunk], b_lo[kMachineChunk];
  double mid[kMachineChunk];
  for (std::size_t i = 0; i < n; ++i) {
    const MachineParams& m = ms[i];
    pi1[i] = m.pi1;
    pi_flop[i] = m.pi_flop();
    pi_mem[i] = m.pi_mem();
    tb[i] = m.time_balance();
    b_hi[i] = m.balance_hi();
    b_lo[i] = m.balance_lo();
    mid[i] = m.pi1 + m.delta_pi;
  }
  for (std::size_t i = 0; i < n; ++i)
    out[i] = intensity >= b_hi[i]
                 ? (pi1[i] + pi_flop[i]) + (pi_mem[i] * tb[i]) / intensity
             : intensity <= b_lo[i]
                 ? (pi1[i] + (pi_flop[i] * intensity) / tb[i]) + pi_mem[i]
                 : mid[i];
}

void perf_eff_machines_chunk(const MachineParams* ms, std::size_t n,
                             double intensity, bool want_efficiency,
                             double* out) {
  double tau_flop[kMachineChunk], eps_flop[kMachineChunk];
  double pi1[kMachineChunk], tb[kMachineChunk], beps[kMachineChunk];
  double cap_coef[kMachineChunk];
  bool capped[kMachineChunk];
  for (std::size_t i = 0; i < n; ++i) {
    const MachineParams& m = ms[i];
    tau_flop[i] = m.tau_flop;
    eps_flop[i] = m.eps_flop;
    pi1[i] = m.pi1;
    tb[i] = m.time_balance();
    beps[i] = m.energy_balance();
    capped[i] = !m.uncapped();
    cap_coef[i] = capped[i] ? m.pi_flop() / m.delta_pi : 0.0;
  }
  double tpf[kMachineChunk];
  for (std::size_t i = 0; i < n; ++i) {
    const double free_term = std::max(1.0, tb[i] / intensity);
    const double cap_term = cap_coef[i] * (1.0 + beps[i] / intensity);
    tpf[i] = capped[i] ? tau_flop[i] * std::max(free_term, cap_term)
                       : tau_flop[i] * free_term;
  }
  if (!want_efficiency) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 1.0 / tpf[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i)
    out[i] =
        1.0 / (eps_flop[i] * (1.0 + beps[i] / intensity) + pi1[i] * tpf[i]);
}

}  // namespace

void metric_value_machines(std::span<const MachineParams> machines,
                           Metric metric, double intensity, double* out) {
  std::size_t done = 0;
  while (done < machines.size()) {
    const std::size_t n = std::min(kMachineChunk, machines.size() - done);
    const MachineParams* ms = machines.data() + done;
    switch (metric) {
      case Metric::Power:
        power_machines_chunk(ms, n, intensity, out + done);
        break;
      case Metric::Performance:
        perf_eff_machines_chunk(ms, n, intensity, /*want_efficiency=*/false,
                                out + done);
        break;
      case Metric::EnergyEfficiency:
        perf_eff_machines_chunk(ms, n, intensity, /*want_efficiency=*/true,
                                out + done);
        break;
    }
    done += n;
  }
}

}  // namespace archline::core
