#include "core/kernels.hpp"

#include <algorithm>

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

/// Per-machine constants for predict rows, hoisted once per batch.
struct PredictConsts {
  double tau_flop, tau_mem, eps_flop, eps_mem, pi1, delta_pi;
  bool capped;

  explicit PredictConsts(const MachineParams& m) noexcept
      : tau_flop(m.tau_flop),
        tau_mem(m.tau_mem),
        eps_flop(m.eps_flop),
        eps_mem(m.eps_mem),
        pi1(m.pi1),
        delta_pi(m.delta_pi),
        capped(!m.uncapped()) {}
};

/// Rows [0, n) of the predict kernel: time()/energy()/avg_power()/
/// regime() plus add_prediction's derived ratios.
void predict_rows(const PredictConsts& c, const double* f, const double* b,
                  std::size_t n, double* intensity, double* time_s,
                  double* energy_j, double* avg_power_w, double* performance,
                  double* efficiency, Regime* regime) {
  if (c.capped) {
    for (std::size_t i = 0; i < n; ++i) {
      const double t_flop = f[i] * c.tau_flop;
      const double t_mem = b[i] * c.tau_mem;
      // `lin` is the linear energy term W*eps_flop + Q*eps_mem — reused
      // by the cap time and the energy, exactly as roofline.cpp writes
      // the same expression in both places.
      const double lin = f[i] * c.eps_flop + b[i] * c.eps_mem;
      const double t_cap = lin / c.delta_pi;
      const double t = std::max(std::max(t_flop, t_mem), t_cap);
      const double e = lin + c.pi1 * t;
      intensity[i] = f[i] / b[i];
      time_s[i] = t;
      energy_j[i] = e;
      avg_power_w[i] = t <= 0.0 ? c.pi1 : e / t;
      performance[i] = f[i] / t;
      efficiency[i] = f[i] / e;
      regime[i] = t_cap == t   ? Regime::PowerCap
                  : t_mem == t ? Regime::Memory
                               : Regime::Compute;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double t_flop = f[i] * c.tau_flop;
      const double t_mem = b[i] * c.tau_mem;
      const double lin = f[i] * c.eps_flop + b[i] * c.eps_mem;
      // t_cap is identically 0 for uncapped machines; max against 0
      // keeps the value equal to max({t_flop, t_mem, 0.0}).
      const double t = std::max(std::max(t_flop, t_mem), 0.0);
      const double e = lin + c.pi1 * t;
      intensity[i] = f[i] / b[i];
      time_s[i] = t;
      energy_j[i] = e;
      avg_power_w[i] = t <= 0.0 ? c.pi1 : e / t;
      performance[i] = f[i] / t;
      efficiency[i] = f[i] / e;
      regime[i] = t_mem == t ? Regime::Memory : Regime::Compute;
    }
  }
}

/// Per-machine constants for the closed-form curve rows. Every field is
/// the same expression the MachineParams helpers compute at each scalar
/// call site — hoisting them changes how often they are evaluated,
/// never their bits.
struct CurveConsts {
  double tau_flop, eps_flop, eps_mem, pi1, delta_pi;
  double tau_mem;
  double tb;        ///< time_balance()    = tau_mem / tau_flop
  double beps;      ///< energy_balance()  = eps_mem / eps_flop
  double pi_flop;   ///< eps_flop / tau_flop
  double pi_mem;    ///< eps_mem / tau_mem
  double b_hi;      ///< balance_hi()
  double b_lo;      ///< balance_lo()
  double hi_c0;     ///< pi1 + pi_flop          (power, I >= b_hi branch)
  double hi_c1;     ///< pi_mem * time_balance  (power, I >= b_hi branch)
  double mid;       ///< pi1 + delta_pi         (power, capped interior)
  double cap_coef;  ///< pi_flop / delta_pi     (time_per_flop cap term)
  bool capped;

  explicit CurveConsts(const MachineParams& m) noexcept
      : tau_flop(m.tau_flop),
        eps_flop(m.eps_flop),
        eps_mem(m.eps_mem),
        pi1(m.pi1),
        delta_pi(m.delta_pi),
        tau_mem(m.tau_mem),
        tb(m.time_balance()),
        beps(m.energy_balance()),
        pi_flop(m.pi_flop()),
        pi_mem(m.pi_mem()),
        b_hi(m.balance_hi()),
        b_lo(m.balance_lo()),
        hi_c0(m.pi1 + m.pi_flop()),
        hi_c1(m.pi_mem() * m.time_balance()),
        mid(m.pi1 + m.delta_pi),
        cap_coef(m.pi_flop() / m.delta_pi),
        capped(!m.uncapped()) {}
};

/// Rows [0, n) of the metric-curve kernel: avg_power_closed_form(),
/// performance(), energy_efficiency(), regime_at().
void curve_rows(const CurveConsts& c, const double* I, std::size_t n,
                double* power, double* performance, double* efficiency,
                Regime* regime) {
  if (c.capped) {
    for (std::size_t i = 0; i < n; ++i) {
      // avg_power_closed_form: hi branch (pi1 + pi_flop) + pi_mem*tb/I,
      // lo branch (pi1 + pi_flop*I/tb) + pi_mem, else pi1 + delta_pi.
      power[i] = I[i] >= c.b_hi   ? c.hi_c0 + c.hi_c1 / I[i]
                 : I[i] <= c.b_lo ? (c.pi1 + (c.pi_flop * I[i]) / c.tb) +
                                        c.pi_mem
                                  : c.mid;
      // time_per_flop: tau_flop * max(free, cap); `shared` is the
      // (1 + B_eps/I) factor both the cap term and energy_per_flop use.
      const double free_term = std::max(1.0, c.tb / I[i]);
      const double shared = 1.0 + c.beps / I[i];
      const double cap_term = c.cap_coef * shared;
      const double tpf = c.tau_flop * std::max(free_term, cap_term);
      performance[i] = 1.0 / tpf;
      const double epf = c.eps_flop * shared + c.pi1 * tpf;
      efficiency[i] = 1.0 / epf;
    }
    for (std::size_t i = 0; i < n; ++i) {
      // regime_at: the unit workload (flops = 1, bytes = 1/I). The
      // bytes division happens FIRST, matching Workload::from_intensity
      // (tau_mem/I would round differently than (1/I)*tau_mem).
      const double bytes = 1.0 / I[i];
      const double t_flop = c.tau_flop;  // 1.0 * tau_flop exactly
      const double t_mem = bytes * c.tau_mem;
      const double lin = c.eps_flop + bytes * c.eps_mem;
      const double t_cap = lin / c.delta_pi;
      const double t = std::max(std::max(t_flop, t_mem), t_cap);
      regime[i] = t_cap == t   ? Regime::PowerCap
                  : t_mem == t ? Regime::Memory
                               : Regime::Compute;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      // Uncapped: b_hi == b_lo == tb, so the interior (pi1 + delta_pi =
      // inf) branch is unreachable and power is the hi/lo pair only.
      power[i] = I[i] >= c.b_hi
                     ? c.hi_c0 + c.hi_c1 / I[i]
                     : (c.pi1 + (c.pi_flop * I[i]) / c.tb) + c.pi_mem;
      const double free_term = std::max(1.0, c.tb / I[i]);
      const double shared = 1.0 + c.beps / I[i];
      const double tpf = c.tau_flop * free_term;
      performance[i] = 1.0 / tpf;
      const double epf = c.eps_flop * shared + c.pi1 * tpf;
      efficiency[i] = 1.0 / epf;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double bytes = 1.0 / I[i];
      const double t_flop = c.tau_flop;
      const double t_mem = bytes * c.tau_mem;
      const double t = std::max(std::max(t_flop, t_mem), 0.0);
      regime[i] = t_mem == t ? Regime::Memory : Regime::Compute;
    }
  }
}

}  // namespace

void predict_batch(const MachineParams& m, const WorkloadBatch& in,
                   PredictionBatch& out) {
  const std::size_t n = in.size();
  out.resize(n);
  const PredictConsts c(m);
  predict_rows(c, in.flops.data(), in.bytes.data(), n, out.intensity.data(),
               out.time_s.data(), out.energy_j.data(), out.avg_power_w.data(),
               out.performance.data(), out.efficiency.data(),
               out.regime.data());
}

void metric_curves(const MachineParams& m, std::span<const double> intensities,
                   MetricCurve& out) {
  const std::size_t n = intensities.size();
  out.resize(n);
  const CurveConsts c(m);
  curve_rows(c, intensities.data(), n, out.power.data(),
             out.performance.data(), out.efficiency.data(), out.regime.data());
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
