#include "census.hpp"

#include <atomic>
#include <fstream>
#include <set>
#include <thread>

#include "core/kernels.hpp"
#include "core/policy.hpp"
#include "fit/model_fit.hpp"
#include "fit/online/snapshot.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "powermon/sampler.hpp"
#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "sim/factory.hpp"

namespace perfbench {
namespace {

namespace core = archline::core;
namespace serve = archline::serve;
namespace platforms = archline::platforms;

/// Mean time of `reps` back-to-back calls, in ns, recorded as a span.
template <typename F>
double timed(std::vector<Span>& spans, const char* name, const char* parent,
             std::uint64_t id, int reps, F&& f) {
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < reps; ++r) f();
  const std::int64_t t1 = now_ns();
  spans.push_back({name, id, t0, t1, parent});
  return static_cast<double>(t1 - t0) / reps;
}

const platforms::PlatformSpec& spec_of(const Json& req, std::string_view key = "platform") {
  return platforms::platform(std::string(req.find(key)->as_string_view()));
}

core::Workload workload_of(const Json& j) {
  const double flops = j.number_or("flops", 1e9);
  if (const Json* b = j.find("bytes")) return {flops, b->as_number()};
  return core::Workload::from_intensity(flops, j.number_or("intensity", 1.0));
}

core::Objective objective_of(const Json& req) {
  const std::string_view o = req.string_view_or("objective", "min_energy");
  if (o == "min_time") return core::Objective::MinTime;
  if (o == "min_edp") return core::Objective::MinEdp;
  return core::Objective::MinEnergy;
}

/// The kinds the census must cover: the workload's lines, plus one
/// reference line for each kind the workload never sends.
std::vector<std::pair<vocab::Line, std::uint64_t>> census_set(
    const std::vector<vocab::Line>& lines, const std::vector<std::uint64_t>& ids,
    const std::vector<vocab::Line>& reference) {
  std::vector<std::pair<vocab::Line, std::uint64_t>> set;
  std::vector<bool> seen(vocab::kKindCount, false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    seen[lines[i].kind] = true;
    set.emplace_back(lines[i], ids[i]);
  }
  for (const vocab::Line& r : reference)
    if (!seen[r.kind]) set.emplace_back(r, 0);
  return set;
}

/// The in-process Server runs with the flags of the server under test.
/// For a workload that misses the cache, the cache is off: the census
/// handles every line several times, and a hit would time the wrong path.
serve::ServerOptions server_options(const std::vector<std::string>& flags, bool cached) {
  serve::ServerOptions o;
  for (std::size_t i = 0; i + 1 < flags.size(); ++i) {
    const std::string& flag = flags[i];
    const auto value = [&] { return std::stol(flags[i + 1]); };
    if (flag == "--threads") o.threads = static_cast<int>(value());
    else if (flag == "--heavy-workers") o.heavy_workers = static_cast<int>(value());
    else if (flag == "--queue") o.queue_capacity = static_cast<std::size_t>(value());
    else if (flag == "--cache") o.cache_capacity = static_cast<std::size_t>(value());
  }
  if (!cached) o.cache_capacity = 0;
  return o;
}

}  // namespace

ServeCensus serve_census(const std::vector<vocab::Line>& lines,
                         const std::vector<std::uint64_t>& ids,
                         const std::vector<vocab::Line>& reference,
                         const std::vector<std::string>& server_flags, bool cached,
                         std::vector<Span>& spans) {
  const auto set = census_set(lines, ids, reference);
  const serve::ServerOptions options = server_options(server_flags, cached);
  serve::Server server(options);
  server.start();
  serve::ShardedLruCache probe_cache(cached ? options.cache_capacity : 65536,
                                     options.cache_shards);
  archline::fit::online::OnlineStore store;
  serve::Reply reply;
  std::string out;
  // Observations first, so refit and params lines meet a fed window.
  for (const auto& [line, id] : set)
    if (line.kind == vocab::kObserve) {
      serve::handle_line(line.text, {}, reply, &store);
      server.handle_into(line.text, out);
    }
  if (cached)
    for (const auto& [line, id] : set) {
      server.handle_into(line.text, out);
      probe_cache.put(line.text, out);
    }

  std::vector<double> parse, classify, bytes, handle_line, handle_into, submit_done,
      probe;
  std::vector<std::vector<double>> by_kind(vocab::kKindCount);
  std::vector<double> per_element, advise, observe_per_tuple;
  std::set<std::string> observed;  // platforms the census fed
  for (const auto& [line, id] : set) {
    const std::string& text = line.text;
    bytes.push_back(static_cast<double>(text.size()));
    classify.push_back(timed(spans, "registry.classify_line", "server.submit_done", id,
                             32, [&] { (void)serve::classify_line(text); }));
    parse.push_back(timed(spans, "json.parse_in_situ", "protocol.handle_line", id, 8,
                          [&] { (void)Json::parse_in_situ(text); }));
    const double hl = timed(spans, "protocol.handle_line", "server.handle_into", id, 1,
                            [&] { serve::handle_line(text, {}, reply, &store); });
    handle_line.push_back(hl);
    by_kind[line.kind].push_back(hl * 1e-3);
    probe.push_back(timed(spans, "cache.get", "server.handle_into", id, 8, [&] {
      std::uint8_t tag = 0;
      (void)probe_cache.get(text, 0, out, tag);
    }));
    handle_into.push_back(timed(spans, "server.handle_into", "server.submit_done", id, 1,
                                [&] { server.handle_into(text, out); }));
    std::atomic<bool> done{false};
    const std::int64_t t0 = now_ns();
    if (server.submit(text, [&done](std::string&&) { done.store(true); })) {
      for (int spin = 0; !done.load(); ++spin)
        if (spin % 1024 == 1023) std::this_thread::yield();
      const std::int64_t t1 = now_ns();
      spans.push_back({"server.submit_done", id, t0, t1, "tcp.request"});
      submit_done.push_back(static_cast<double>(t1 - t0));
    }

    // Library layers under the endpoints, on the same request.
    const Json req = Json::parse(text);
    if (line.kind == vocab::kPredict || line.kind == vocab::kPredictBatch) {
      core::WorkloadBatch batch;
      if (const Json* el = req.find("elements"))
        for (const Json& e : el->as_array()) batch.push_back(workload_of(e));
      else
        batch.push_back(workload_of(req));
      const core::MachineParams m = spec_of(req).machine();
      core::PredictionBatch pred;
      per_element.push_back(timed(spans, "core.predict_batch", "protocol.handle_line", id,
                                  8, [&] { core::predict_batch(m, batch, pred); }) /
                            static_cast<double>(batch.size()));
    } else if (line.kind == vocab::kPolicyAdvise) {
      const auto& spec = spec_of(req);
      core::PolicyRequest preq;
      preq.workload = workload_of(req);
      preq.objective = objective_of(req);
      preq.period_s = req.number_or("period_s", 0.0);
      advise.push_back(timed(spans, "core.policy_advise", "protocol.handle_line", id, 4,
                             [&] {
                               (void)core::policy_advise(spec.machine(),
                                                         spec.operating_points, preq);
                             }) *
                       1e-3);
    } else if (line.kind == vocab::kObserve) {
      std::vector<archline::fit::online::Sample> samples;
      for (const Json& o : req.find("observations")->as_array())
        samples.push_back({o.number_or("flops", 0), o.number_or("bytes", 0),
                           o.number_or("seconds", 0), o.number_or("joules", 0)});
      const std::string platform(req.find("platform")->as_string_view());
      observed.insert(platform);
      observe_per_tuple.push_back(
          timed(spans, "online.observe", "protocol.handle_line", id, 1,
                [&] { store.observe(platform, samples); }) /
          static_cast<double>(samples.size()));
    }
  }

  // Re-solves on (up to three of) the platforms the census fed.
  std::vector<double> resolve;
  for (const std::string& platform : observed) {
    if (resolve.size() == 3) break;
    try {
      resolve.push_back(timed(spans, "online.resolve", "", 0, 1,
                              [&] { (void)store.resolve(platform); }) *
                        1e-6);
    } catch (const std::exception&) {
      // Degenerate window data: no timing for this platform.
    }
  }
  server.shutdown();

  ServeCensus c;
  c.parse_ns = median(parse);
  c.classify_ns = median(classify);
  c.line_bytes = median(bytes);
  c.handle_line_us = median(handle_line) * 1e-3;
  c.handle_into_us = median(handle_into) * 1e-3;
  c.submit_done_us = median(submit_done) * 1e-3;
  c.cache_probe_ns = median(probe);
  for (auto& v : by_kind) c.handle_us_by_kind.push_back(median(v));
  c.predict_ns_per_element = median(per_element);
  c.policy_advise_us = median(advise);
  c.observe_ns_per_tuple = median(observe_per_tuple);
  c.resolve_ms = median(resolve);
  return c;
}

PipelineCensus pipeline_census(const std::vector<Campaign>& campaigns,
                               std::vector<Span>& spans) {
  std::vector<double> suite, run, sample, fit;
  std::size_t converged = 0, fits = 0;
  const archline::microbench::SuiteOptions suite_options;
  for (std::size_t i = 0; i < campaigns.size(); ++i) {
    const auto& spec = platforms::platform(
        std::string(vocab::platform_names()[campaigns[i].platform]));
    const archline::sim::SimMachine machine = archline::sim::make_machine(spec);
    archline::stats::Rng rng(campaigns[i].seed);
    archline::microbench::SuiteData data;
    suite.push_back(timed(spans, "microbench.run_suite", "", i, 1, [&] {
                      data = archline::microbench::run_suite(machine, suite_options, rng);
                    }) *
                    1e-6);
    // The suite's own kernels, run and sampled again outside it.
    for (std::size_t k = 0; k < data.dram_sp.size(); k += 4) {
      archline::sim::RunResult result;
      run.push_back(timed(spans, "sim.run", "microbench.run_suite", i, 1, [&] {
        result = machine.run(data.dram_sp[k].kernel, rng);
      }));
      sample.push_back(timed(spans, "powermon.sample", "microbench.run_suite", i, 1, [&] {
                         (void)archline::powermon::sample(result.capture,
                                                          suite_options.sampler, rng);
                       }) *
                       1e-6);
    }
    for (const auto kind : {archline::fit::ModelKind::Capped,
                            archline::fit::ModelKind::Uncapped}) {
      archline::fit::FitOptions fo;
      fo.kind = kind;
      archline::fit::FitResult r;
      fit.push_back(timed(spans, "fit.fit_machine", "", i, 1,
                          [&] { r = archline::fit::fit_machine(data, fo); }) *
                    1e-6);
      ++fits;
      converged += r.converged ? 1 : 0;
    }
  }
  PipelineCensus c;
  c.suite_ms = median(suite);
  c.sim_run_ns = median(run);
  c.sample_ms = median(sample);
  c.fit_ms = median(fit);
  c.converged_share = fits ? static_cast<double>(converged) / static_cast<double>(fits) : 0;
  return c;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    Json j = Json::object();
    j.set("name", s.name);
    j.set("request_id", s.request_id);
    j.set("start_ns", static_cast<std::int64_t>(s.start_ns));
    j.set("end_ns", static_cast<std::int64_t>(s.end_ns));
    j.set("parent", s.parent);
    out << j.dump() << '\n';
  }
}

}  // namespace perfbench
