#include "fit/model_fit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/roofline.hpp"
#include "fit/levmar.hpp"
#include "fit/linalg.hpp"
#include "stats/descriptive.hpp"

namespace archline::fit {

namespace {

/// The binding branch's profile: delta_pi at the largest kernel demand
/// times 2^(-j/4), j = 0 .. kProfilePoints - 1 (five octaves), and the LM
/// budget of each point's inner (eps_flop, eps_mem, pi1) solve.
constexpr int kProfilePoints = 21;
constexpr int kProfileIterations = 3;

/// The tails' profile: tau at the measured sustained rate times
/// 2^((2 - j)/4), j = 0 .. kTailProfilePoints - 1, two quarter-octave
/// steps either side of it. Over suite seeds 0-199 x 12 platforms,
/// capped and uncapped, a 25-point profile found its best point within
/// those two steps in 11581 of the 11600 tails, and the polish starts
/// from there.
constexpr int kTailProfilePoints = 5;

/// How much lower the binding branch's RSS must be for it to win. On
/// observations that a model reproduces exactly, both branches end at
/// an RSS of rounding size (~1e-29), and which of them is lower then says
/// nothing about the cap.
constexpr double kBranchMargin = 1e-20;

/// The DRAM/SP objective's anchors, appended after the observation
/// residuals in this order: idle when its hint is set, then max power
/// when the model is capped and its hint is set.
bool idle_anchor(const FitOptions& opt) { return opt.idle_watts_hint > 0.0; }
bool max_anchor(const FitOptions& opt) {
  return opt.kind == ModelKind::Capped && opt.max_watts_hint > 0.0;
}
double idle_residual(const core::MachineParams& m, const FitOptions& opt) {
  return opt.idle_weight * (m.pi1 / opt.idle_watts_hint - 1.0);
}
double max_residual(const core::MachineParams& m, const FitOptions& opt) {
  return opt.max_watts_weight * (m.max_power() / opt.max_watts_hint - 1.0);
}

/// The DRAM/SP objective at `m`: the squared residuals of `cols`, then
/// the squared anchors, summed in that order.
double objective(ObservationColumns& cols, const core::MachineParams& m,
                 const FitOptions& opt) {
  double acc = cols.sum_squared_residuals(m);
  if (idle_anchor(opt)) {
    const double r = idle_residual(m, opt);
    acc += r * r;
  }
  if (max_anchor(opt)) {
    const double r = max_residual(m, opt);
    acc += r * r;
  }
  return acc;
}

/// The residual vector whose squares objective() sums, in its order.
void objective_residuals(ObservationColumns& cols,
                         const core::MachineParams& m, const FitOptions& opt,
                         std::vector<double>& r) {
  const std::size_t n = 3 * cols.size();
  r.resize(n + (idle_anchor(opt) ? 1 : 0) + (max_anchor(opt) ? 1 : 0));
  cols.residuals(m, r);
  std::size_t next = n;
  if (idle_anchor(opt)) r[next++] = idle_residual(m, opt);
  if (max_anchor(opt)) r[next] = max_residual(m, opt);
}

/// The DRAM/SP machine whose cap binds on no kernel, solved exactly.
/// With tau_flop and tau_mem fixed, every model time T = max(W tau_flop,
/// Q tau_mem) is a constant and the energy residual (W eps_flop + Q
/// eps_mem + pi1 T)/e - 1, the power residual (W eps_flop + Q eps_mem +
/// pi1 T)/(T p) - 1 and the idle anchor are linear in x = (eps_flop,
/// eps_mem, pi1). Capped, the max-power anchor is linear too once
/// delta_pi >= pi_flop + pi_mem, where max_power() = pi1 + eps_flop /
/// tau_flop + eps_mem / tau_mem. delta_pi is published at that sum: from
/// there up, neither a kernel's time nor max_power() depends on it, and
/// the sum depends on the solve alone, not on an optimizer's stopping
/// point. Uncapped, delta_pi is kUncapped and that anchor is absent.
/// Either way the objective is the constant time term plus ||A x - b||^2
/// over x >= 0: nnls3().
///
/// An eps held on its bound is reported as DBL_MIN, the smallest
/// positive normal double: the machine must have a positive eps, and no
/// energy the fit reproduces can tell DBL_MIN from 0. pi1 may be 0.
core::MachineParams solve_flat(std::span<const microbench::Observation> obs,
                               ObservationColumns& cols,
                               const MeasuredThroughput& taus,
                               const FitOptions& opt, double& rss_out) {
  const bool idle = idle_anchor(opt);
  const bool max = max_anchor(opt);
  Mat a(2 * obs.size() + (idle ? 1 : 0) + (max ? 1 : 0), 3);
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
  std::size_t row = 2 * obs.size();
  if (idle) {
    a(row, 2) = opt.idle_weight / opt.idle_watts_hint;
    b[row++] = opt.idle_weight;
  }
  if (max) {
    const double w = opt.max_watts_weight / opt.max_watts_hint;
    a(row, 0) = w / taus.tau_flop;
    a(row, 1) = w / taus.tau_mem;
    a(row, 2) = w;
    b[row] = opt.max_watts_weight;
  }
  const auto machine = [&](const std::array<double, 3>& x) {
    core::MachineParams m;
    m.tau_flop = taus.tau_flop;
    m.tau_mem = taus.tau_mem;
    m.eps_flop = std::max(x[0], std::numeric_limits<double>::min());
    m.eps_mem = std::max(x[1], std::numeric_limits<double>::min());
    m.pi1 = x[2];
    m.delta_pi = opt.kind == ModelKind::Capped ? m.pi_flop() + m.pi_mem()
                                               : core::kUncapped;
    return m;
  };
  Mat g(3, 3);
  std::array<double, 3> atb{};
  normal_equations(a, b, g, atb);
  std::array<double, 3> x{};
  rss_out = nnls3(
      g, atb,
      [&](const std::array<double, 3>& c) {
        return objective(cols, machine(c), opt);
      },
      x);
  if (!std::isfinite(rss_out))
    throw std::invalid_argument("fit_observations: no finite flat solution");
  return machine(x);
}

/// The polish profile_and_polish kept: its log-space x, score and LM
/// convergence flag.
struct Polished {
  std::vector<double> x;
  double score = std::numeric_limits<double>::infinity();
  bool converged = false;
};

/// The search shape of the binding branch and of the tails. One
/// coordinate of a log-space x is profiled down a quarter-octave grid:
/// log_top - j log(2)/4, j = 0 .. points - 1, where `inner(v, score)`
/// returns the whole x at profile value v and sets its score. LM then
/// polishes every coordinate from the best profile point and from each
/// of its neighbours, and keeps the polish that `score(x)` ranks lowest:
/// the objective has a kink wherever a kernel's demand crosses delta_pi,
/// and one polish can stall on a kink next to the optimum. Returns an
/// empty x when no polish scores below infinity.
template <typename Inner, typename Score>
Polished profile_and_polish(double log_top, int points, Inner inner,
                            const ResidualFn& residuals, Score score,
                            int polish_iterations) {
  std::vector<std::vector<double>> profile;
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (int j = 0; j < points; ++j) {
    double point_score = 0.0;
    profile.push_back(inner(log_top - j * std::log(2.0) / 4.0, point_score));
    if (point_score < best_score) {
      best_score = point_score;
      best = profile.size() - 1;
    }
  }

  LevmarOptions polish_opt;
  polish_opt.max_iterations = polish_iterations;
  Polished out;
  for (std::size_t j = best == 0 ? 0 : best - 1;
       j <= std::min(best + 1, profile.size() - 1); ++j) {
    LevmarResult lm =
        levenberg_marquardt(residuals, profile[j], polish_opt);
    const double s = score(lm.x);
    if (s < out.score) {
      out.score = s;
      out.converged = lm.converged;
      out.x = std::move(lm.x);
    }
  }
  return out;
}

/// The capped DRAM/SP machine whose cap binds on at least one kernel.
/// Such a delta_pi is at most the largest kernel demand (W eps_flop + Q
/// eps_mem) / max(W tau_flop, Q tau_mem), taken at the flat solution's
/// eps. profile_and_polish profiles log delta_pi down from there: at
/// each fixed delta_pi, LM solves the inner (eps_flop, eps_mem, pi1)
/// problem from the flat solution. That problem is nearly linear: a
/// capped kernel's power residual (pi1 + delta_pi)/p - 1 does not depend
/// on eps, and its time residual (W eps_flop + Q eps_mem) / (delta_pi t)
/// - 1 is linear in eps. The polishes then move all four constants. Sets
/// rss_out to infinity when `flat` admits no binding cap.
core::MachineParams solve_binding(ObservationColumns& cols,
                                  std::span<const microbench::Observation> obs,
                                  const core::MachineParams& flat,
                                  const FitOptions& opt, double& rss_out,
                                  bool& converged_out) {
  rss_out = std::numeric_limits<double>::infinity();
  converged_out = false;
  double demand = 0.0;
  for (const microbench::Observation& o : obs)
    demand = std::max(demand, (o.kernel.flops * flat.eps_flop +
                               o.kernel.bytes * flat.eps_mem) /
                                  std::max(o.kernel.flops * flat.tau_flop,
                                           o.kernel.bytes * flat.tau_mem));
  if (!(demand > 0.0) || !std::isfinite(demand)) return flat;

  // x = log [eps_flop, eps_mem, pi1, delta_pi]; an eps that underflows
  // is held at DBL_MIN, as solve_flat reports it.
  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m = flat;
    m.eps_flop = std::max(std::exp(x[0]), std::numeric_limits<double>::min());
    m.eps_mem = std::max(std::exp(x[1]), std::numeric_limits<double>::min());
    m.pi1 = std::exp(x[2]);
    m.delta_pi = std::exp(x[3]);
    return m;
  };
  const std::vector<double> seed = {std::log(flat.eps_flop),
                                    std::log(flat.eps_mem),
                                    std::log(std::max(flat.pi1, 1e-6))};
  LevmarOptions inner_opt;
  inner_opt.max_iterations = kProfileIterations;
  const Polished best = profile_and_polish(
      std::log(demand), kProfilePoints,
      [&](double log_cap, double& rss) {
        const LevmarResult lm = levenberg_marquardt(
            [&](std::span<const double> y, std::vector<double>& r) {
              const double x[4] = {y[0], y[1], y[2], log_cap};
              objective_residuals(cols, decode(x), opt, r);
            },
            seed, inner_opt);
        rss = lm.rss;
        return std::vector<double>{lm.x[0], lm.x[1], lm.x[2], log_cap};
      },
      [&](std::span<const double> x, std::vector<double>& r) {
        objective_residuals(cols, decode(x), opt, r);
      },
      [&](std::span<const double> x) {
        return objective(cols, decode(x), opt);
      },
      opt.lm_iterations);
  if (best.x.empty()) return flat;
  rss_out = best.score;
  converged_out = best.converged;
  return decode(best.x);
}

/// The DRAM/SP fit, with tau_flop and tau_mem fixed to the directly
/// measured sustained throughputs (the paper's "sustained peak" values,
/// Table I parentheticals): tau is not identifiable by regression alone,
/// since on machines whose cap rides at or below an engine's demand
/// (pi_mem >~ delta_pi) the rate limit never binds and any faster tau
/// fits equally well. Uncapped, the fit is solve_flat's exact solve.
/// Capped, it is the better of solve_flat (the cap binds nowhere) and
/// solve_binding (it binds on at least one kernel); the loser's RSS goes
/// into runner_up_rss.
void optimize_machine(std::span<const microbench::Observation> obs,
                      const FitOptions& opt, FitResult& out) {
  const MeasuredThroughput taus = measure_throughput(obs);
  ObservationColumns cols(obs);
  double flat_rss = 0.0;
  const core::MachineParams flat = solve_flat(obs, cols, taus, opt, flat_rss);
  out.machine = flat;
  out.rss = flat_rss;
  out.converged = true;
  out.flat_cap = opt.kind == ModelKind::Capped;
  out.runner_up_rss = std::numeric_limits<double>::infinity();
  if (opt.kind == ModelKind::Uncapped) return;

  double binding_rss = 0.0;
  bool binding_converged = false;
  const core::MachineParams binding =
      solve_binding(cols, obs, flat, opt, binding_rss, binding_converged);
  if (binding_rss + kBranchMargin < flat_rss) {
    out.machine = binding;
    out.rss = binding_rss;
    out.converged = binding_converged;
    out.flat_cap = false;
    out.runner_up_rss = flat_rss;
  } else {
    out.runner_up_rss = binding_rss;
  }
}

/// A tail's eps at fixed tau, solved exactly. With every other constant
/// fixed, a kernel's active energy W eps_flop + Q eps_mem is a0 + c eps
/// (c = W for a second precision, Q for a cache level), and each of its
/// three residuals is affine in eps on either side of the eps where that
/// demand reaches delta_pi R, R = max(W tau_flop, Q tau_mem): below it T
/// = R; above it T = (a0 + c eps) / delta_pi, E = (a0 + c eps)(1 + pi1 /
/// delta_pi) and P = pi1 + delta_pi. So the objective is a convex
/// quadratic between consecutive breakpoints, and one sweep over the
/// sorted breakpoints, with prefix sums of the capped pieces and suffix
/// sums of the rate-bound ones, finds the lowest eps >= 0 in O(n log n).
/// An eps on its bound is reported as DBL_MIN, as solve_flat reports it.
template <double core::MachineParams::*Eps>
double solve_tail_eps(std::span<const microbench::Observation> obs,
                      const core::MachineParams& m) {
  // Sums of alpha^2, alpha beta and beta^2 over residuals alpha + beta eps.
  struct Quad {
    double aa = 0.0, ab = 0.0, bb = 0.0;
    void add(double alpha, double beta) {
      aa += alpha * alpha;
      ab += alpha * beta;
      bb += beta * beta;
    }
    Quad operator+(const Quad& o) const {
      return {aa + o.aa, ab + o.ab, bb + o.bb};
    }
  };
  // One observation's two pieces, split where its demand reaches the cap.
  struct Pieces {
    double breakpoint;
    Quad rate, cap;
  };
  constexpr bool flop = Eps == &core::MachineParams::eps_flop;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<Pieces> split;
  split.reserve(obs.size());
  for (const microbench::Observation& o : obs) {
    const double w = o.kernel.flops;
    const double q = o.kernel.bytes;
    const double c = flop ? w : q;
    const double a0 = flop ? q * m.eps_mem : w * m.eps_flop;
    const double r = std::max(w * m.tau_flop, q * m.tau_mem);
    Pieces p{inf, {}, {}};
    p.rate.add(r / o.seconds - 1.0, 0.0);
    p.rate.add((a0 + m.pi1 * r) / o.joules - 1.0, c / o.joules);
    p.rate.add((a0 + m.pi1 * r) / (r * o.watts) - 1.0, c / (r * o.watts));
    if (!m.uncapped()) {
      const double g = 1.0 + m.pi1 / m.delta_pi;
      const double dt = m.delta_pi * o.seconds;
      p.cap.add(a0 / dt - 1.0, c / dt);
      p.cap.add(a0 * g / o.joules - 1.0, c * g / o.joules);
      p.cap.add((m.pi1 + m.delta_pi) / o.watts - 1.0, 0.0);
      const double reach = m.delta_pi * r - a0;
      p.breakpoint = c > 0.0 ? reach / c : (reach < 0.0 ? -inf : inf);
    }
    split.push_back(p);
  }
  std::sort(split.begin(), split.end(), [](const Pieces& a, const Pieces& b) {
    return a.breakpoint < b.breakpoint;
  });
  std::vector<Quad> rate_from(split.size() + 1);
  for (std::size_t j = split.size(); j-- > 0;)
    rate_from[j] = rate_from[j + 1] + split[j].rate;

  Quad capped;
  double lo = 0.0;
  double best = inf;
  double best_eps = 0.0;
  for (std::size_t j = 0; j <= split.size(); ++j) {
    const double hi = j < split.size() ? split[j].breakpoint : inf;
    if (hi > lo) {
      const Quad f = capped + rate_from[j];
      const double eps = f.bb > 0.0 ? std::clamp(-f.ab / f.bb, lo, hi) : lo;
      const double value = (f.bb * eps + 2.0 * f.ab) * eps + f.aa;
      if (value < best) {
        best = value;
        best_eps = eps;
      }
      lo = hi;
    }
    if (j < split.size()) capped = capped + split[j].cap;
  }
  return std::max(best_eps, std::numeric_limits<double>::min());
}

/// The two-parameter tail shared by the cache-level and second-precision
/// fits, with every other field at `base`'s value: profile_and_polish
/// over x = log [tau, eps], profiling log tau around `tau_measured`, the
/// tail's measured sustained rate, with solve_tail_eps's exact eps at each
/// point. Returns the fitted {tau, eps}.
template <double core::MachineParams::*Tau, double core::MachineParams::*Eps>
std::pair<double, double> fit_cost_pair(
    std::span<const microbench::Observation> obs,
    const core::MachineParams& base, ModelKind kind, const FitOptions& opt,
    double tau_measured) {
  core::MachineParams at = base;
  if (kind == ModelKind::Uncapped) at.delta_pi = core::kUncapped;
  const auto decode = [&](std::span<const double> x) {
    core::MachineParams m = at;
    m.*Tau = std::exp(x[0]);
    m.*Eps = std::max(std::exp(x[1]), std::numeric_limits<double>::min());
    return m;
  };
  ObservationColumns cols(obs);
  const auto score = [&](std::span<const double> x) {
    return cols.sum_squared_residuals(decode(x));
  };
  const Polished best = profile_and_polish(
      std::log(tau_measured) + std::log(2.0) / 2.0, kTailProfilePoints,
      [&](double log_tau, double& rss) {
        core::MachineParams m = at;
        m.*Tau = std::exp(log_tau);
        std::vector<double> x = {log_tau,
                                 std::log(solve_tail_eps<Eps>(obs, m))};
        rss = score(x);
        return x;
      },
      [&](std::span<const double> x, std::vector<double>& r) {
        r.resize(3 * cols.size());
        cols.residuals(decode(x), r);
      },
      score, opt.lm_iterations);
  if (best.x.empty())
    throw std::invalid_argument("fit_machine: no finite tail solution");
  const core::MachineParams m = decode(best.x);
  return {m.*Tau, m.*Eps};
}

/// Fits a 2-parameter memory side (tau_byte, eps_byte) holding the flop
/// side, pi1 and delta_pi fixed at the DRAM fit's values.
LevelFit fit_level(std::span<const microbench::Observation> obs,
                   const core::MachineParams& base, ModelKind kind,
                   const FitOptions& opt) {
  if (obs.size() < 2)
    throw std::invalid_argument("fit_level: need >= 2 observations");
  const auto [tau, eps] =
      fit_cost_pair<&core::MachineParams::tau_mem,
                    &core::MachineParams::eps_mem>(
          obs, base, kind, opt, measure_throughput(obs).tau_mem);
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
  const auto [tau, eps] =
      fit_cost_pair<&core::MachineParams::tau_flop,
                    &core::MachineParams::eps_flop>(
          obs, base, kind, opt, measure_throughput(obs).tau_flop);
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

  optimize_machine(obs, options, result);

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
      optimize_machine(kept, options, result);
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

namespace {

/// `options` with each unset hint taken from the suite: the measured
/// idle power and the sweep's highest average power.
FitOptions with_suite_hints(const microbench::SuiteData& data,
                            const FitOptions& options) {
  FitOptions opt = options;
  if (opt.idle_watts_hint == 0.0) opt.idle_watts_hint = data.idle_watts;
  if (opt.max_watts_hint == 0.0)
    for (const microbench::Observation& o : data.dram_sp)
      opt.max_watts_hint = std::max(opt.max_watts_hint, o.watts);
  return opt;
}

}  // namespace

double suite_objective(const core::MachineParams& m,
                       const microbench::SuiteData& data,
                       const FitOptions& options) {
  ObservationColumns cols(data.dram_sp);
  return objective(cols, m, with_suite_hints(data, options));
}

FitResult fit_machine(const microbench::SuiteData& data,
                      const FitOptions& options) {
  const FitOptions opt = with_suite_hints(data, options);
  FitResult result = fit_observations(data.dram_sp, opt);
  // A flat DRAM/SP fit bounds delta_pi from below only. The tails are
  // fitted with the cap lifted, not at that bound: with the flat branch
  // forced on every campaign, bench/fit_certificate counted >= 25 % eps
  // misses L1 501, L2 528, DP 237 at the bound and 59, 30, 120 lifted.
  core::MachineParams base = result.machine;
  if (result.flat_cap) base.delta_pi = core::kUncapped;
  if (!data.dram_dp.empty())
    result.dp = fit_dp(data.dram_dp, base, opt.kind, opt);
  if (!data.l1.empty())
    result.l1 = fit_level(data.l1, base, opt.kind, opt);
  if (!data.l2.empty())
    result.l2 = fit_level(data.l2, base, opt.kind, opt);
  if (!data.random.empty())
    result.random = fit_random(data.random, result.machine);
  return result;
}

}  // namespace archline::fit
