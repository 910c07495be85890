#include "fit/model_fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/roofline.hpp"
#include "fit/levmar.hpp"
#include "fit/linalg.hpp"
#include "fit/nelder_mead.hpp"
#include "stats/descriptive.hpp"

namespace archline::fit {

namespace {

/// The NM -> LM hand-off: Nelder-Mead stops once its simplex is this
/// close in both f-spread and log-space diameter. That is already below
/// LM's central-difference step (1e-6 max(1, |x|)), and the LM that
/// follows each start finishes the descent; a tighter simplex costs
/// evaluations and ends at the same LM optimum.
constexpr double kNelderMeadHandoff = 1e-7;

NelderMeadOptions handoff_options(int max_evaluations) {
  NelderMeadOptions nm;
  nm.max_evaluations = max_evaluations;
  nm.f_tolerance = kNelderMeadHandoff;
  nm.x_tolerance = kNelderMeadHandoff;
  return nm;
}

/// The uncapped DRAM/SP fit, solved exactly. With tau_flop and tau_mem
/// fixed, every model time T = max(W tau_flop, Q tau_mem) is a constant
/// and the energy residual (W eps_flop + Q eps_mem + pi1 T)/e - 1, the
/// power residual (W eps_flop + Q eps_mem + pi1 T)/(T p) - 1 and the idle
/// anchor are linear in x = (eps_flop, eps_mem, pi1). The objective is
/// the constant time term plus ||A x - b||^2 over x >= 0: non-negative
/// least squares in 3 variables. Its optimum is the least-squares
/// solution over one of the 7 nonempty sets of free constants (the rest
/// held at 0), so solving each set's normal equations and keeping the
/// feasible solution with the lowest objective is exact. The columns are
/// scaled to unit norm first: eps is ~1e-10 J and pi1 ~10 W.
///
/// An eps held on its bound is reported as DBL_MIN, the smallest
/// positive normal double: the machine must have a positive eps, and no
/// energy the fit reproduces can tell DBL_MIN from 0. pi1 may be 0.
core::MachineParams solve_uncapped(
    std::span<const microbench::Observation> obs, const FitOptions& opt,
    double& rss_out) {
  const MeasuredThroughput taus = measure_throughput(obs);
  const bool idle_hint = opt.idle_watts_hint > 0.0;
  Mat a(2 * obs.size() + (idle_hint ? 1 : 0), 3);
  std::vector<double> b(a.rows(), 1.0);
  for (std::size_t i = 0; i < obs.size(); ++i) {
    const microbench::Observation& o = obs[i];
    const double t = std::max(o.kernel.flops * taus.tau_flop,
                              o.kernel.bytes * taus.tau_mem);
    const double terms[3] = {o.kernel.flops, o.kernel.bytes, t};
    for (std::size_t c = 0; c < 3; ++c) {
      a(2 * i, c) = terms[c] / o.joules;
      a(2 * i + 1, c) = terms[c] / (t * o.watts);
    }
  }
  if (idle_hint) {
    a(a.rows() - 1, 2) = opt.idle_weight / opt.idle_watts_hint;
    b.back() = opt.idle_weight;
  }
  const Mat g = gram(a);
  const std::vector<double> atb = matvec_transposed(a, b);
  double scale[3];
  for (std::size_t c = 0; c < 3; ++c) scale[c] = 1.0 / std::sqrt(g(c, c));

  ObservationColumns cols(obs);
  core::MachineParams best;
  rss_out = std::numeric_limits<double>::infinity();
  for (unsigned set = 1; set < 8; ++set) {
    std::vector<std::size_t> free;
    for (std::size_t c = 0; c < 3; ++c)
      if (set & (1u << c)) free.push_back(c);
    Mat s(free.size(), free.size());
    std::vector<double> rhs(free.size());
    for (std::size_t i = 0; i < free.size(); ++i) {
      for (std::size_t j = 0; j < free.size(); ++j)
        s(i, j) = g(free[i], free[j]) * scale[free[i]] * scale[free[j]];
      rhs[i] = atb[free[i]] * scale[free[i]];
    }
    std::vector<double> y;
    try {
      y = cholesky_solve(s, rhs);
    } catch (const std::runtime_error&) {
      continue;  // these columns are linearly dependent
    }
    double x[3] = {0.0, 0.0, 0.0};
    bool feasible = true;
    for (std::size_t i = 0; i < free.size(); ++i) {
      x[free[i]] = y[i] * scale[free[i]];
      feasible = feasible && x[free[i]] > 0.0;
    }
    if (!feasible) continue;

    core::MachineParams m;
    m.tau_flop = taus.tau_flop;
    m.tau_mem = taus.tau_mem;
    m.eps_flop = std::max(x[0], std::numeric_limits<double>::min());
    m.eps_mem = std::max(x[1], std::numeric_limits<double>::min());
    m.pi1 = x[2];
    m.delta_pi = core::kUncapped;
    double rss = cols.sum_squared_residuals(m);
    if (idle_hint) {
      const double r = opt.idle_weight * (m.pi1 / opt.idle_watts_hint - 1.0);
      rss += r * r;
    }
    if (rss < rss_out) {
      rss_out = rss;
      best = m;
    }
  }
  if (!std::isfinite(rss_out))
    throw std::invalid_argument(
        "fit_observations: no finite uncapped solution");
  return best;
}

/// Optimizes the DRAM machine's energy/power constants against
/// observations, with the per-op times fixed to the directly measured
/// sustained throughputs (the paper's "sustained peak" values, Table I
/// parentheticals).
///
/// Rationale: tau_flop/tau_mem are not identifiable by regression alone —
/// on machines whose cap rides at or below an engine's demand
/// (pi_mem >~ delta_pi), the rate limit never binds and any faster tau
/// fits equally well. The uncapped model is then linear in its other
/// three constants and solve_uncapped() finds its optimum exactly. The
/// capped model's four log-space parameters are searched multi-start
/// NM -> LM: the objective has max() kinks and shallow local minima where
/// a mildly binding cap is absorbed into inflated energies, so the search
/// restarts from several delta_pi perturbations and keeps the lowest
/// residual.
core::MachineParams optimize_machine(
    std::span<const microbench::Observation> obs, ModelKind kind,
    const FitOptions& opt, double& rss_out, bool& converged_out) {
  if (kind == ModelKind::Uncapped) {
    converged_out = true;
    return solve_uncapped(obs, opt, rss_out);
  }
  const core::MachineParams seed = initial_guess(obs, ModelKind::Capped);
  const MeasuredThroughput taus = measure_throughput(obs);
  ObservationColumns cols(obs);

  // x = log [eps_flop, eps_mem, pi1, delta_pi]
  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m;
    m.tau_flop = taus.tau_flop;
    m.tau_mem = taus.tau_mem;
    m.eps_flop = std::exp(x[0]);
    m.eps_mem = std::exp(x[1]);
    m.pi1 = std::exp(x[2]);
    m.delta_pi = std::exp(x[3]);
    return m;
  };
  const auto encode = [&](const core::MachineParams& m) {
    return std::vector<double>{std::log(m.eps_flop), std::log(m.eps_mem),
                               std::log(std::max(m.pi1, 1e-6)),
                               std::log(m.delta_pi)};
  };
  // The idle and max-power anchors, appended after the observation
  // residuals in this order by both objectives.
  const bool idle_hint = opt.idle_watts_hint > 0.0;
  const bool max_hint = opt.max_watts_hint > 0.0;
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
  if (opt.max_watts_hint > opt.idle_watts_hint && opt.idle_watts_hint > 0.0)
    anchored.delta_pi = opt.max_watts_hint - opt.idle_watts_hint;

  std::vector<core::MachineParams> seeds;
  seeds.push_back(anchored);
  for (const double cap_scale : {0.7, 1.4}) {
    core::MachineParams s = anchored;
    s.delta_pi = anchored.delta_pi * cap_scale;
    seeds.push_back(s);
  }
  seeds.push_back(seed);
  core::MachineParams half_cap = seed;
  half_cap.delta_pi = seed.delta_pi * 0.5;
  seeds.push_back(half_cap);

  double best_rss = std::numeric_limits<double>::infinity();
  std::vector<double> best_x;
  bool best_converged = false;
  for (const core::MachineParams& start : seeds) {
    NelderMeadOptions nm_opt = handoff_options(
        opt.nm_evaluations / static_cast<int>(seeds.size()));
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

  // Observations whose relative residuals overflow (joules of 1e-300,
  // say) leave every start at a non-finite RSS.
  if (best_x.empty())
    throw std::invalid_argument("fit_observations: no finite capped solution");
  rss_out = best_rss;
  converged_out = best_converged;
  return decode(best_x);
}

/// The two-parameter tail shared by the cache-level and second-precision
/// fits: log-space NM then LM, both cheap, from the seed (tau0, eps0).
/// Every other field stays at `base`'s value; decode writes the pair into
/// Tau/Eps. Returns the fitted {tau, eps}.
template <double core::MachineParams::*Tau, double core::MachineParams::*Eps>
std::pair<double, double> fit_cost_pair(
    std::span<const microbench::Observation> obs,
    const core::MachineParams& base, ModelKind kind, const FitOptions& opt,
    double tau0, double eps0) {
  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m = base;
    m.*Tau = std::exp(x[0]);
    m.*Eps = std::exp(x[1]);
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
  const NelderMeadResult nm =
      nelder_mead(scalar, x0, handoff_options(opt.nm_evaluations / 4));
  LevmarOptions lm_opt;
  lm_opt.max_iterations = opt.lm_iterations;
  const LevmarResult lm = levenberg_marquardt(residual_fn, nm.x, lm_opt);
  return {std::exp(lm.x[0]), std::exp(lm.x[1])};
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

  const auto [tau, eps] =
      fit_cost_pair<&core::MachineParams::tau_mem,
                    &core::MachineParams::eps_mem>(obs, base, kind, opt,
                                                   tau0, eps0);
  return LevelFit{.tau_byte = tau, .eps_byte = eps};
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

  const auto [tau, eps] =
      fit_cost_pair<&core::MachineParams::tau_flop,
                    &core::MachineParams::eps_flop>(obs, base, kind, opt,
                                                    tau0, eps0);
  return FlopFit{.tau_flop = tau, .eps_flop = eps};
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

  result.machine = optimize_machine(obs, options.kind, options, result.rss,
                                    result.converged);

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
      result.machine = optimize_machine(kept, options.kind, options,
                                        result.rss, result.converged);
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
