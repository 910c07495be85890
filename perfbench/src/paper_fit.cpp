// paper-fit: the paper's own pipeline, in-process. For every Table I
// platform and a fixed campaign seed set, sim::make_machine ->
// microbench::run_suite (PowerMon sampling included) -> fit::fit_machine
// capped and uncapped -> the reproduction check. Passes over the set
// repeat until --seconds is spent.

#include <algorithm>
#include <numeric>

#include "experiments/exp_table1.hpp"
#include "fit/model_fit.hpp"
#include "microbench/parallel.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "server_proc.hpp"
#include "serving.hpp"
#include "sim/factory.hpp"

namespace perfbench {
namespace {

namespace fit = archline::fit;
namespace microbench = archline::microbench;
namespace platforms = archline::platforms;

struct PaperCampaign {
  Campaign campaign;
  bool table1 = false;  ///< the seed the reproduction checklist pins
};

struct PassResult {
  double seconds = 0, setup_s = 0;
  int cpu = -1;  ///< the CPU the pass ran on
  /// Per campaign, in set order.
  std::vector<double> campaign_us, fit_ms, covered_us;
  std::size_t failed = 0;
  std::string first_failure;
  double worst_error = 0;
};

/// The fixed campaign set: the Table I seed plus spec.json's extra suite
/// seeds. The extra seeds are fixed, not drawn from --seed, because some
/// suite seeds make fit::fit_machine throw on degenerate data; --seed
/// orders the extra campaigns.
std::vector<PaperCampaign> campaigns(const Context& ctx) {
  const Json& sec = ctx.section("paper-fit");
  const auto table1_seed = static_cast<std::uint64_t>(sec.number_or("table1_seed", 20140519));
  std::vector<std::uint64_t> seeds{table1_seed};
  for (const Json& s : sec.find("extra_seeds")->as_array())
    seeds.push_back(static_cast<std::uint64_t>(s.as_number()));
  vocab::Rng rng = vocab::stream(ctx.seed, 70);
  std::vector<PaperCampaign> out;
  const auto names = vocab::platform_names();
  for (std::uint64_t s : seeds)
    for (std::size_t p = 0; p < names.size(); ++p)
      out.push_back({{p, microbench::campaign_seed(s, names[p])}, s == table1_seed});
  // The Table I campaigns lead in database order, so set-up (everything
  // before the first fit) is the same work for every seed; the seeded
  // campaigns follow in a seeded order.
  for (std::size_t i = out.size(); i > names.size() + 1; --i)
    std::swap(out[i - 1],
              out[names.size() + static_cast<std::size_t>(rng.below(i - names.size()))]);
  return out;
}

PassResult run_pass(const std::vector<PaperCampaign>& set, double tolerance,
                    std::vector<Span>* spans) {
  PassResult r;
  const std::int64_t start = now_ns();
  std::vector<archline::sim::SimMachine> machines;
  for (const auto& spec : platforms::all_platforms())
    machines.push_back(archline::sim::make_machine(spec));
  const microbench::SuiteOptions suite_options;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const PaperCampaign& c = set[i];
    const auto& spec = platforms::all_platforms()[c.campaign.platform];
    const std::int64_t t0 = now_ns();
    archline::stats::Rng rng(c.campaign.seed);
    const microbench::SuiteData data =
        microbench::run_suite(machines[c.campaign.platform], suite_options, rng);
    const std::int64_t t1 = now_ns();
    if (i == 0) r.setup_s = seconds_between(start, t1);
    fit::FitOptions uncapped_options;
    uncapped_options.kind = fit::ModelKind::Uncapped;
    fit::FitResult capped, uncapped;
    std::string failure;
    std::int64_t t2 = t1;
    try {
      capped = fit::fit_machine(data);
      t2 = now_ns();
      uncapped = fit::fit_machine(data, uncapped_options);
    } catch (const std::exception& e) {
      failure = e.what();
    }
    const std::int64_t t3 = now_ns();

    archline::experiments::Table1Row row;
    row.spec = &spec;
    row.refit = capped;
    const double error = row.worst_identifiable_error();
    if (failure.empty() && !(capped.converged && uncapped.converged))
      failure = "did not converge";
    else if (failure.empty() && c.table1 && !(error < tolerance))
      failure = "misses the Table I tolerance";
    if (c.table1) r.worst_error = std::max(r.worst_error, error);
    if (!failure.empty() && r.failed++ == 0) r.first_failure = spec.name + ": " + failure;
    const std::int64_t t4 = now_ns();
    r.campaign_us.push_back(static_cast<double>(t4 - t0) * 1e-3);
    r.fit_ms.push_back(static_cast<double>(t3 - t1) * 1e-6);
    r.covered_us.push_back(static_cast<double>(t3 - t0) * 1e-3);
    if (spans) {
      spans->push_back({"paper.campaign", i, t0, t4, ""});
      spans->push_back({"microbench.run_suite", i, t0, t1, "paper.campaign"});
      spans->push_back({"fit.fit_machine", i, t1, t2, "paper.campaign"});
      spans->push_back({"fit.fit_machine", i, t2, t3, "paper.campaign"});
    }
  }
  r.seconds = seconds_between(start, now_ns());
  return r;
}

/// Passes until `seconds` run out (at least one), pinned to each of
/// `cpus` in turn.
std::vector<PassResult> run_passes(const std::vector<PaperCampaign>& set, double tolerance,
                                   double seconds, const std::vector<int>& cpus,
                                   std::vector<Span>* spans) {
  std::vector<PassResult> passes;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  do {
    const int cpu = cpus.empty() ? -1 : cpus[passes.size() % cpus.size()];
    if (cpu >= 0) pin_to({cpu});
    passes.push_back(run_pass(set, tolerance, spans));
    passes.back().cpu = cpu;
  } while (now_ns() < end);
  return passes;
}

/// Each campaign's cost: its fastest pass. Every pass runs the same
/// campaigns on the same inputs, and the host only ever adds time: on a
/// 4-vCPU KVM guest, stretches of passes ran 50-80 % slower with no time
/// stolen by the hypervisor (other guests share the cores). Passes rotate
/// over every CPU, so no one CPU's neighbours decide a whole run.
std::vector<double> campaign_costs(const std::vector<PassResult>& passes) {
  std::vector<double> cost(passes.front().campaign_us);
  for (const auto& p : passes)
    for (std::size_t i = 0; i < cost.size(); ++i)
      cost[i] = std::min(cost[i], p.campaign_us[i]);
  return cost;
}

}  // namespace

RunOutput run_paper_fit(const Context& ctx) {
  RunOutput out;
  const auto set = campaigns(ctx);
  const double tolerance = ctx.number("paper-fit", "tolerance");
  std::vector<Span> spans;
  // No server runs beside this workload: its passes use every CPU.
  std::vector<int> cpus = ctx.server_cpus;
  cpus.insert(cpus.end(), ctx.generator_cpus.begin(), ctx.generator_cpus.end());
  std::vector<PassResult> passes =
      run_passes(set, tolerance, ctx.trace ? ctx.seconds / 2 : ctx.seconds, cpus, nullptr);
  std::vector<PassResult> traced;
  if (ctx.trace) traced = run_passes(set, tolerance, ctx.seconds / 2, cpus, &spans);

  std::vector<double> setup, pass_s, latency, fit_ms, pass_cpu;
  double worst = 0;
  std::size_t campaigns_run = 0;
  for (const auto& p : passes) {
    setup.push_back(p.setup_s);
    pass_s.push_back(p.seconds);
    pass_cpu.push_back(p.cpu);
    latency.insert(latency.end(), p.campaign_us.begin(), p.campaign_us.end());
    fit_ms.insert(fit_ms.end(), p.fit_ms.begin(), p.fit_ms.end());
    worst = std::max(worst, p.worst_error);
  }
  for (const auto* group : {&passes, &traced})
    for (const auto& p : *group) {
      campaigns_run += p.campaign_us.size();
      out.failed += p.failed;
      if (p.failed) {
        out.correct = false;
        out.report.set("first_failure", p.first_failure);
      }
    }
  out.attempted = campaigns_run;
  out.report.set("campaigns_per_pass", static_cast<std::uint64_t>(set.size()));
  out.report.set("passes", static_cast<std::uint64_t>(passes.size()));
  out.report.set("pipeline_s", median(pass_s));
  out.report.set("fit_p50_ms", median(fit_ms));
  out.report.set("latency_samples", static_cast<std::uint64_t>(latency.size()));
  out.report.set("worst_table1_error", worst);
  out.report.set("tolerance", tolerance);

  out.report.set("pass_seconds", Json(Json::Array(pass_s.begin(), pass_s.end())));
  out.report.set("pass_cpu", Json(Json::Array(pass_cpu.begin(), pass_cpu.end())));

  if (!ctx.trace) {
    // Set-up is the same work in every pass too: its fastest pass.
    const std::vector<double> cost = campaign_costs(passes);
    out.add("setup_s", *std::min_element(setup.begin(), setup.end()), "s");
    out.add("throughput_rps",
            static_cast<double>(cost.size()) /
                (std::accumulate(cost.begin(), cost.end(), 0.0) * 1e-6),
            "req/s");
    out.add("latency_p50_us", median(cost), "us");
    out.report.set("latency_p99_us", quantile(cost, 0.99));
    out.add("peak_rss_mb", self_peak_rss_mib(), "MiB");
    return out;
  }

  std::vector<double> traced_latency, covered;
  for (const auto& p : traced) {
    traced_latency.insert(traced_latency.end(), p.campaign_us.begin(), p.campaign_us.end());
    covered.insert(covered.end(), p.covered_us.begin(), p.covered_us.end());
  }
  const double untraced_p50 = median(latency);
  std::vector<Campaign> table1;
  for (const auto& c : set)
    if (c.table1) table1.push_back(c.campaign);
  const PipelineCensus pipeline = pipeline_census(table1, spans);
  const ServeLayers serve = reference_serve_layers(ctx, spans);
  emit_layers(out, serve, pipeline, median(covered) / untraced_p50,
              median(traced_latency) / untraced_p50);
  const std::string path =
      ctx.out_dir + "/spans-paper-fit-seed" + std::to_string(ctx.seed) + ".jsonl";
  write_spans(path, spans);
  out.report.set("spans_file", path);
  out.report.set("spans", static_cast<std::uint64_t>(spans.size()));
  return out;
}

}  // namespace perfbench
