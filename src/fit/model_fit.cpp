#include "fit/model_fit.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/roofline.hpp"
#include "fit/levmar.hpp"
#include "fit/nelder_mead.hpp"
#include "stats/descriptive.hpp"

namespace archline::fit {

namespace {

/// Optimizes the DRAM machine's energy/power constants against
/// observations, with the per-op times fixed to the directly measured
/// sustained throughputs (the paper's "sustained peak" values, Table I
/// parentheticals).
///
/// Rationale: tau_flop/tau_mem are not identifiable by regression alone —
/// on machines whose cap rides at or below an engine's demand
/// (pi_mem >~ delta_pi), the rate limit never binds and any faster tau
/// fits equally well. The remaining four (capped) or three (uncapped)
/// log-space parameters are searched multi-start NM -> LM: the objective
/// still has shallow local minima where a mildly binding cap is absorbed
/// into inflated energies, so the search restarts from several delta_pi /
/// pi1 perturbations and keeps the lowest residual.
core::MachineParams optimize_machine(
    std::span<const microbench::Observation> obs, ModelKind kind,
    const core::MachineParams& seed, const FitOptions& opt, double& rss_out,
    bool& converged_out) {
  const MeasuredThroughput taus = measure_throughput(obs);
  const bool capped = kind == ModelKind::Capped;
  ObservationColumns cols(obs);

  // x = log [eps_flop, eps_mem, pi1, (delta_pi)]
  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m;
    m.tau_flop = taus.tau_flop;
    m.tau_mem = taus.tau_mem;
    m.eps_flop = std::exp(x[0]);
    m.eps_mem = std::exp(x[1]);
    m.pi1 = std::exp(x[2]);
    m.delta_pi = capped ? std::exp(x[3]) : core::kUncapped;
    return m;
  };
  const auto encode = [&](const core::MachineParams& m) {
    std::vector<double> x = {std::log(m.eps_flop), std::log(m.eps_mem),
                             std::log(std::max(m.pi1, 1e-6))};
    if (capped) x.push_back(std::log(m.delta_pi));
    return x;
  };
  // The idle and max-power anchors, appended after the observation
  // residuals in this order by both objectives.
  const bool idle_hint = opt.idle_watts_hint > 0.0;
  const bool max_hint = capped && opt.max_watts_hint > 0.0;
  const auto idle_residual = [&](const core::MachineParams& m) {
    return opt.idle_weight * (m.pi1 / opt.idle_watts_hint - 1.0);
  };
  const auto max_residual = [&](const core::MachineParams& m) {
    return opt.max_watts_weight * (m.max_power() / opt.max_watts_hint - 1.0);
  };
  const std::size_t n_resid = 3 * cols.size();
  const auto residual_fn = [&](std::span<const double> x,
                               std::vector<double>& r) {
    const core::MachineParams m = decode(x);
    r.resize(n_resid + (idle_hint ? 1 : 0) + (max_hint ? 1 : 0));
    cols.residuals(m, r);
    std::size_t next = n_resid;
    if (idle_hint) r[next++] = idle_residual(m);
    if (max_hint) r[next] = max_residual(m);
  };
  // The same sum as squaring residual_fn's elements in order, without
  // building the vector.
  const auto scalar_objective = [&](std::span<const double> x) {
    const core::MachineParams m = decode(x);
    double acc = cols.sum_squared_residuals(m);
    if (idle_hint) {
      const double r = idle_residual(m);
      acc += r * r;
    }
    if (max_hint) {
      const double r = max_residual(m);
      acc += r * r;
    }
    return acc;
  };

  // Seed construction. delta_pi has zero objective gradient once it
  // exceeds the fitted engines' combined demand (the cap stops binding
  // anywhere), so a start inside the right basin is essential: the direct
  // estimate max_watts - idle_watts is the cap level wherever the cap
  // binds at all, exactly the pi1 + delta_pi decomposition of the paper's
  // Fig. 5 annotations.
  core::MachineParams anchored = seed;
  if (opt.idle_watts_hint > 0.0) anchored.pi1 = opt.idle_watts_hint;
  if (capped && opt.max_watts_hint > opt.idle_watts_hint &&
      opt.idle_watts_hint > 0.0)
    anchored.delta_pi = opt.max_watts_hint - opt.idle_watts_hint;

  std::vector<core::MachineParams> seeds;
  seeds.push_back(anchored);
  if (capped) {
    for (const double cap_scale : {0.7, 1.4}) {
      core::MachineParams s = anchored;
      s.delta_pi = anchored.delta_pi * cap_scale;
      seeds.push_back(s);
    }
    seeds.push_back(seed);
    core::MachineParams s = seed;
    s.delta_pi = seed.delta_pi * 0.5;
    seeds.push_back(s);
  } else {
    core::MachineParams s = anchored;
    s.pi1 = anchored.pi1 * 1.3;
    seeds.push_back(s);
    seeds.push_back(seed);
  }

  double best_rss = std::numeric_limits<double>::infinity();
  std::vector<double> best_x;
  bool best_converged = false;
  for (const core::MachineParams& start : seeds) {
    NelderMeadOptions nm_opt;
    nm_opt.max_evaluations =
        opt.nm_evaluations / static_cast<int>(seeds.size());
    nm_opt.initial_step = 0.35;
    const NelderMeadResult nm =
        nelder_mead(scalar_objective, encode(start), nm_opt);

    LevmarOptions lm_opt;
    lm_opt.max_iterations = opt.lm_iterations;
    const LevmarResult lm = levenberg_marquardt(residual_fn, nm.x, lm_opt);
    if (lm.rss < best_rss) {
      best_rss = lm.rss;
      best_x = lm.x;
      best_converged = lm.converged || nm.converged;
    }
  }

  rss_out = best_rss;
  converged_out = best_converged;
  return decode(best_x);
}

/// Fits a 2-parameter memory side (tau_byte, eps_byte) holding the flop
/// side, pi1 and delta_pi fixed at the DRAM fit's values.
LevelFit fit_level(std::span<const microbench::Observation> obs,
                   const core::MachineParams& base, ModelKind kind,
                   const FitOptions& opt) {
  if (obs.size() < 2)
    throw std::invalid_argument("fit_level: need >= 2 observations");

  // Seed from the fastest per-byte point and a crude energy split.
  double tau0 = std::numeric_limits<double>::infinity();
  for (const microbench::Observation& o : obs)
    if (o.kernel.bytes > 0.0)
      tau0 = std::min(tau0, o.seconds / o.kernel.bytes);
  const microbench::Observation& lo =
      *std::min_element(obs.begin(), obs.end(),
                        [](const auto& a, const auto& b) {
                          return a.intensity() < b.intensity();
                        });
  double eps0 = (lo.joules - base.pi1 * lo.seconds -
                 base.eps_flop * lo.kernel.flops) /
                std::max(lo.kernel.bytes, 1.0);
  eps0 = std::max(eps0, 1e-15);

  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m = base;
    m.tau_mem = std::exp(x[0]);
    m.eps_mem = std::exp(x[1]);
    if (kind == ModelKind::Uncapped) m.delta_pi = core::kUncapped;
    return m;
  };
  ObservationColumns cols(obs);
  const auto residual_fn = [&](std::span<const double> x,
                               std::vector<double>& r) {
    r.resize(3 * cols.size());
    cols.residuals(decode(x), r);
  };
  const std::vector<double> x0 = {std::log(tau0), std::log(eps0)};

  // Two smooth-ish parameters: NM then LM, both cheap.
  const auto scalar = [&](std::span<const double> x) {
    return cols.sum_squared_residuals(decode(x));
  };
  NelderMeadOptions nm_opt;
  nm_opt.max_evaluations = opt.nm_evaluations / 4;
  const NelderMeadResult nm = nelder_mead(scalar, x0, nm_opt);
  LevmarOptions lm_opt;
  lm_opt.max_iterations = opt.lm_iterations;
  const LevmarResult lm = levenberg_marquardt(residual_fn, nm.x, lm_opt);
  return LevelFit{.tau_byte = std::exp(lm.x[0]),
                  .eps_byte = std::exp(lm.x[1])};
}

/// Closed-form random-access fit: tau from the access rate, eps from the
/// energy after subtracting the constant-power charge.
RandomFit fit_random(std::span<const microbench::Observation> obs,
                     const core::MachineParams& base) {
  if (obs.empty())
    throw std::invalid_argument("fit_random: no observations");
  std::vector<double> taus;
  std::vector<double> epss;
  for (const microbench::Observation& o : obs) {
    if (!(o.kernel.accesses > 0.0)) continue;
    taus.push_back(o.seconds / o.kernel.accesses);
    epss.push_back(
        std::max((o.joules - base.pi1 * o.seconds) / o.kernel.accesses,
                 1e-15));
  }
  if (taus.empty())
    throw std::invalid_argument("fit_random: no access counts");
  return RandomFit{.tau_access = stats::median(taus),
                   .eps_access = stats::median(epss)};
}

/// Fits a second precision's flop costs holding everything else fixed.
FlopFit fit_dp(std::span<const microbench::Observation> obs,
               const core::MachineParams& base, ModelKind kind,
               const FitOptions& opt) {
  if (obs.size() < 2)
    throw std::invalid_argument("fit_dp: need >= 2 observations");
  double tau0 = std::numeric_limits<double>::infinity();
  for (const microbench::Observation& o : obs)
    if (o.kernel.flops > 0.0)
      tau0 = std::min(tau0, o.seconds / o.kernel.flops);
  const microbench::Observation& hi =
      *std::max_element(obs.begin(), obs.end(),
                        [](const auto& a, const auto& b) {
                          return a.intensity() < b.intensity();
                        });
  double eps0 = (hi.joules - base.pi1 * hi.seconds) /
                std::max(hi.kernel.flops, 1.0);
  eps0 = std::max(eps0, 1e-15);

  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m = base;
    m.tau_flop = std::exp(x[0]);
    m.eps_flop = std::exp(x[1]);
    if (kind == ModelKind::Uncapped) m.delta_pi = core::kUncapped;
    return m;
  };
  ObservationColumns cols(obs);
  const auto residual_fn = [&](std::span<const double> x,
                               std::vector<double>& r) {
    r.resize(3 * cols.size());
    cols.residuals(decode(x), r);
  };
  const auto scalar = [&](std::span<const double> x) {
    return cols.sum_squared_residuals(decode(x));
  };
  const std::vector<double> x0 = {std::log(tau0), std::log(eps0)};
  NelderMeadOptions nm_opt;
  nm_opt.max_evaluations = opt.nm_evaluations / 4;
  const NelderMeadResult nm = nelder_mead(scalar, x0, nm_opt);
  LevmarOptions lm_opt;
  lm_opt.max_iterations = opt.lm_iterations;
  const LevmarResult lm = levenberg_marquardt(residual_fn, nm.x, lm_opt);
  return FlopFit{.tau_flop = std::exp(lm.x[0]),
                 .eps_flop = std::exp(lm.x[1])};
}

/// R^2 of log(performance) predictions over the sweep. (Log-time would be
/// nearly constant by construction — kernels are sized for equal duration —
/// so performance is the quantity with explanatory variance.)
double r_squared_log_perf(const core::MachineParams& m,
                          std::span<const microbench::Observation> obs) {
  std::vector<double> actual;
  std::vector<double> resid;
  actual.reserve(obs.size());
  for (const microbench::Observation& o : obs) {
    if (!(o.kernel.flops > 0.0)) continue;
    const double t_model = core::time(m, o.kernel.workload());
    const double log_perf_meas = std::log(o.kernel.flops / o.seconds);
    const double log_perf_model = std::log(o.kernel.flops / t_model);
    actual.push_back(log_perf_meas);
    resid.push_back(log_perf_meas - log_perf_model);
  }
  const double mu = stats::mean(actual);
  double ss_tot = 0.0;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    ss_tot += (actual[i] - mu) * (actual[i] - mu);
    ss_res += resid[i] * resid[i];
  }
  return ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 0.0;
}

}  // namespace

namespace {

/// Per-observation worst relative residual under a fitted machine.
std::vector<double> worst_residuals(
    const core::MachineParams& m,
    std::span<const microbench::Observation> obs) {
  std::vector<double> out;
  out.reserve(obs.size());
  for (const microbench::Observation& o : obs) {
    const core::Workload w = o.kernel.workload();
    const double rt = std::abs(core::time(m, w) / o.seconds - 1.0);
    const double re = std::abs(core::energy(m, w) / o.joules - 1.0);
    out.push_back(std::max(rt, re));
  }
  return out;
}

}  // namespace

FitResult fit_observations(std::span<const microbench::Observation> obs,
                           const FitOptions& options) {
  if (obs.size() < 6)
    throw std::invalid_argument("fit_observations: need >= 6 observations");
  FitResult result;
  result.kind = options.kind;
  result.observations = obs.size();

  const core::MachineParams seed = initial_guess(obs, options.kind);
  result.machine = optimize_machine(obs, options.kind, seed, options,
                                    result.rss, result.converged);

  // Optional robust passes: iteratively drop gross outliers relative to
  // the current fit's residual scale and refit on the survivors. Multiple
  // rounds matter — severe outliers wreck the first fit badly enough to
  // inflate every residual, so trimming converges stepwise.
  if (options.outlier_mad_threshold > 0.0) {
    std::vector<microbench::Observation> kept(obs.begin(), obs.end());
    for (int round = 0; round < 3 && kept.size() >= 8; ++round) {
      const std::vector<double> resid =
          worst_residuals(result.machine, kept);
      const double scale = std::max(stats::median(resid), 1e-6);
      // Severe outliers can wreck the fit so badly that every residual
      // inflates and the max/median ratio stays small; the 50% absolute
      // ceiling catches that regime (legitimate residuals in this
      // pipeline are percent-level), while the relative term and the 5%
      // floor protect clean data.
      const double cutoff = std::max(
          std::min(options.outlier_mad_threshold * scale, 0.5), 0.05);
      std::vector<microbench::Observation> survivors;
      survivors.reserve(kept.size());
      for (std::size_t i = 0; i < kept.size(); ++i)
        if (resid[i] <= cutoff) survivors.push_back(kept[i]);
      if (survivors.size() == kept.size() || survivors.size() < 6) break;
      kept = std::move(survivors);
      const core::MachineParams reseed = initial_guess(kept, options.kind);
      result.machine = optimize_machine(kept, options.kind, reseed,
                                        options, result.rss,
                                        result.converged);
    }
    result.observations = kept.size();
    result.machine.validate("fit_observations(robust)");
    result.r_squared_perf = r_squared_log_perf(result.machine, kept);
    return result;
  }

  result.machine.validate("fit_observations");
  result.r_squared_perf = r_squared_log_perf(result.machine, obs);
  return result;
}

FitResult fit_machine(const microbench::SuiteData& data,
                      const FitOptions& options) {
  FitOptions opt = options;
  if (opt.idle_watts_hint == 0.0) opt.idle_watts_hint = data.idle_watts;
  if (opt.max_watts_hint == 0.0)
    for (const microbench::Observation& o : data.dram_sp)
      opt.max_watts_hint = std::max(opt.max_watts_hint, o.watts);
  FitResult result = fit_observations(data.dram_sp, opt);
  if (!data.dram_dp.empty())
    result.dp = fit_dp(data.dram_dp, result.machine, opt.kind, opt);
  if (!data.l1.empty())
    result.l1 = fit_level(data.l1, result.machine, opt.kind, opt);
  if (!data.l2.empty())
    result.l2 = fit_level(data.l2, result.machine, opt.kind, opt);
  if (!data.random.empty())
    result.random = fit_random(data.random, result.machine);
  return result;
}

}  // namespace archline::fit
