#include "fit/online/snapshot.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

#include "core/operating_point.hpp"
#include "fit/model_fit.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"

namespace archline::fit::online {

namespace {

/// Blend the solver's answer with the live RLS estimates: the solver is
/// authoritative for the time constants and the cap (the max() kink and
/// delta_pi are exactly what RLS cannot express), the RLS filter is
/// fresher for the linear energy constants. RLS values that are not yet
/// usable (early noise can drive an estimate <= 0) fall back to the
/// solver's.
core::MachineParams blend(const core::MachineParams& solved,
                          const RlsEstimate& rls) {
  core::MachineParams m = solved;
  const auto usable = [](double v) {
    return v > 0.0 && std::isfinite(v);
  };
  if (usable(rls.eps_flop)) m.eps_flop = rls.eps_flop;
  if (usable(rls.eps_mem)) m.eps_mem = rls.eps_mem;
  if (usable(rls.pi1)) m.pi1 = rls.pi1;
  return m;
}

}  // namespace

OnlineStore::OnlineStore(OnlineFitOptions options)
    : options_(options) {
  if (!(options_.forgetting > 0.0) || options_.forgetting > 1.0)
    options_.forgetting = 1.0;
  if (options_.window_capacity == 0) options_.window_capacity = 1;
  for (const platforms::PlatformSpec& spec : platforms::all_platforms())
    platforms_.push_back(
        std::make_unique<PlatformState>(std::string(spec.name), options_));
}

OnlineStore::PlatformState* OnlineStore::find(
    std::string_view platform) const noexcept {
  // Linear scan over a fixed table of < 20 names — same reasoning as
  // the endpoint registry.
  for (const auto& p : platforms_)
    if (p->name == platform) return p.get();
  return nullptr;
}

OnlineStore::PlatformRef OnlineStore::find_platform(
    std::string_view platform) const noexcept {
  return PlatformRef(find(platform));
}

std::uint64_t OnlineStore::observe(std::string_view platform,
                                   std::span<const Sample> batch) {
  return observe(find_platform(platform), batch);
}

std::uint64_t OnlineStore::observe(PlatformRef platform,
                                   std::span<const Sample> batch) {
  PlatformState* p = platform.state_;
  if (!p) return 0;
  std::lock_guard<std::mutex> lock(p->ingest_mutex);
  for (const Sample& s : batch) {
    p->rls.observe(s);
    if (p->window.size() < options_.window_capacity) {
      p->window.push_back(s);
    } else {
      p->window[p->window_next] = s;
      p->window_next = (p->window_next + 1) % options_.window_capacity;
    }
  }
  p->total += batch.size();
  observations_total_.fetch_add(batch.size(), std::memory_order_relaxed);
  return p->total;
}

std::shared_ptr<const ParamSnapshot> OnlineStore::published(
    std::string_view platform) const {
  const PlatformState* p = find(platform);
  if (!p) return nullptr;
  std::lock_guard<std::mutex> lock(p->snapshot_mutex);
  return p->snapshot;
}

std::uint64_t OnlineStore::observations(std::string_view platform) const {
  const PlatformState* p = find(platform);
  if (!p) return 0;
  std::lock_guard<std::mutex> lock(p->ingest_mutex);
  return p->total;
}

std::vector<std::string_view> OnlineStore::dirty_platforms() const {
  std::vector<std::string_view> out;
  for (const auto& p : platforms_) {
    std::lock_guard<std::mutex> lock(p->ingest_mutex);
    if (p->total > p->published_total &&
        p->window.size() >= options_.min_resolve_observations)
      out.push_back(p->name);
  }
  return out;
}

std::shared_ptr<const ParamSnapshot> OnlineStore::resolve(
    std::string_view platform) {
  PlatformState* p = find(platform);
  if (!p) return nullptr;

  // Copy the window and the filter state under the ingest lock; the
  // expensive solve below runs unlocked so `observe` stays O(1) even
  // while a re-solve is in flight.
  std::vector<Sample> window;
  RlsEstimate rls;
  std::uint64_t total = 0;
  {
    std::lock_guard<std::mutex> lock(p->ingest_mutex);
    window = p->window;
    rls = p->rls.estimate();
    total = p->total;
    p->published_total = p->total;
  }
  if (window.size() < options_.min_resolve_observations) return nullptr;

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<microbench::Observation> obs;
  obs.reserve(window.size());
  char label[64];
  for (const Sample& s : window) {
    microbench::Observation o;
    o.kernel.flops = s.flops;
    o.kernel.bytes = s.bytes;
    // measure_throughput() averages repeats of the same kernel label
    // before taking the sustained-peak min. Streamed tuples carry no
    // label, so derive one from the workload shape: repeats of the same
    // (W, Q) de-noise each other while distinct workloads stay distinct
    // — an unlabeled window would collapse into ONE averaged
    // pseudo-kernel and turn tau into the sweep mean instead of the
    // observed peak.
    std::snprintf(label, sizeof label, "%.9g/%.9g", s.flops, s.bytes);
    o.kernel.label = label;
    o.seconds = s.seconds;
    o.joules = s.joules;
    o.watts = s.joules / s.seconds;
    obs.push_back(std::move(o));
  }
  fit::FitOptions opt;
  opt.kind = ModelKind::Capped;
  opt.nm_evaluations = options_.nm_evaluations;
  opt.lm_iterations = options_.lm_iterations;
  const fit::FitResult solved = fit::fit_observations(obs, opt);

  auto snapshot = std::make_shared<ParamSnapshot>();
  snapshot->machine = blend(solved.machine, rls);
  snapshot->rls = rls;
  snapshot->observations = total;
  snapshot->resolved = true;
  snapshot->rss = solved.rss;
  snapshot->r_squared = solved.r_squared_perf;
  snapshot->converged = solved.converged;
  snapshot->window_observations = solved.observations;
  // Per-operating-point overlay: the learned machine applied across the
  // platform's DVFS ladder, so downstream policy recommendations are
  // steered by the live constants without per-request re-derivation.
  if (const platforms::PlatformSpec* spec =
          platforms::find_platform(p->name)) {
    snapshot->op_machines = core::machines_at_points(
        snapshot->machine, spec->operating_points.points);
  }

  // Publish: epoch under the pointer mutex, generation after — a reader
  // that sees the new generation may briefly still load the old
  // snapshot, which only costs one extra cache re-evaluation, never a
  // stale-served reply (the cache stores the generation observed BEFORE
  // evaluation, so such an entry is already stale on arrival).
  {
    std::lock_guard<std::mutex> lock(p->snapshot_mutex);
    snapshot->epoch = ++p->epoch;
    p->snapshot = snapshot;
  }
  generation_.fetch_add(1, std::memory_order_release);
  resolves_.fetch_add(1, std::memory_order_relaxed);
  last_resolve_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count(),
      std::memory_order_relaxed);
  return snapshot;
}

OnlineStoreStats OnlineStore::stats() const {
  OnlineStoreStats s;
  s.observations = observations_total_.load(std::memory_order_relaxed);
  s.resolves = resolves_.load(std::memory_order_relaxed);
  s.generation = generation_.load(std::memory_order_acquire);
  for (const auto& p : platforms_) {
    std::lock_guard<std::mutex> lock(p->snapshot_mutex);
    if (p->epoch > 0) ++s.platforms_fitted;
  }
  const std::int64_t ns = last_resolve_ns_.load(std::memory_order_relaxed);
  s.last_resolve_s = ns < 0 ? -1.0 : static_cast<double>(ns) * 1e-9;
  return s;
}

}  // namespace archline::fit::online
