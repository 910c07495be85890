// Library microbenchmarks (google-benchmark): regression guard on the hot
// paths — model evaluation, simulator runs, sampling, fitting, the
// native host kernels, and the serving path's per-request costs
// (`--benchmark_filter=Serve`).
//
// The BM_Serve* cases drive serve::Server in process: a cached hit on 1
// and 4 threads, the miss path, predict_batch, JSON parsing,
// policy_advise, observe ingest and a Light request through submit().
// BM_ServeTcp* cross a one-shard TcpListener on loopback, one request
// per round trip, and report the round trip's p50/p99 as counters.
// Request lines come from sim/request_pools, the vocabulary
// serve_loadgen and the campaigns send. Whole-daemon load (shard
// scaling, the Heavy flood, ingest under refit) is serve_loadgen's job.

#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/roofline.hpp"
#include "fit/levmar.hpp"
#include "fit/model_fit.hpp"
#include "fit/objective.hpp"
#include "microbench/intensity.hpp"
#include "microbench/native_kernels.hpp"
#include "microbench/parallel.hpp"
#include "microbench/suite.hpp"
#include "platforms/platform_db.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/tcp.hpp"
#include "sim/factory.hpp"
#include "sim/request_pools.hpp"
#include "sim/tcp_client.hpp"
#include "stats/descriptive.hpp"

namespace {

using namespace archline;

void BM_ModelTimeEval(benchmark::State& state) {
  const core::MachineParams m = platforms::platform("GTX Titan").machine();
  const core::Workload w = core::Workload::from_intensity(1e12, 2.0);
  for (auto _ : state) benchmark::DoNotOptimize(core::time(m, w));
}
BENCHMARK(BM_ModelTimeEval);

void BM_ModelPowerClosedForm(benchmark::State& state) {
  const core::MachineParams m = platforms::platform("GTX Titan").machine();
  double intensity = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::avg_power_closed_form(m, intensity));
    intensity = intensity < 512.0 ? intensity * 1.01 : 0.1;
  }
}
BENCHMARK(BM_ModelPowerClosedForm);

void BM_SimMachineRun(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("GTX Titan"));
  stats::Rng rng(1);
  sim::KernelDesc k;
  k.label = "bench";
  k.flops = 1e12;
  k.bytes = 1e11;
  for (auto _ : state) benchmark::DoNotOptimize(m.run(k, rng));
}
BENCHMARK(BM_SimMachineRun);

void BM_SamplerOneSecondCapture(benchmark::State& state) {
  powermon::PowerTrace t;
  t.add_constant(1.0, 100.0);
  const powermon::Capture cap = powermon::split_across_rails(
      t, powermon::discrete_gpu_rails(), 0.0, 1.0);
  stats::Rng rng(2);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        powermon::sample(cap, powermon::SamplerConfig{}, rng));
}
BENCHMARK(BM_SamplerOneSecondCapture);

// One default-suite run's capture (the DRAM sweep's balance point, sized
// to the suite's 0.25 s target) through the default sampler, as
// run_suite does for every repeat.
void BM_PowermonSample(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("GTX Titan"));
  const microbench::SuiteOptions opt;
  const sim::SimConfig& cfg = m.config();
  const double intensity = 4.0;
  const sim::KernelDesc k = microbench::intensity_kernel(
      intensity,
      microbench::bytes_for_duration(intensity, cfg.sp.tau, cfg.sp.eps,
                                     cfg.dram.tau_byte, cfg.dram.eps_byte,
                                     cfg.delta_pi, opt.target_seconds),
      core::Precision::Single, core::MemLevel::DRAM);
  stats::Rng rng(6);
  const powermon::Capture cap = m.run(k, rng).capture;
  for (auto _ : state)
    benchmark::DoNotOptimize(powermon::sample(cap, opt.sampler, rng));
}
BENCHMARK(BM_PowermonSample);

// The same capture through the streaming estimator the suite calls: the
// one sampling loop with a summing sink, nothing stored.
void BM_PowermonSampleMean(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("GTX Titan"));
  const microbench::SuiteOptions opt;
  const sim::SimConfig& cfg = m.config();
  const double intensity = 4.0;
  const sim::KernelDesc k = microbench::intensity_kernel(
      intensity,
      microbench::bytes_for_duration(intensity, cfg.sp.tau, cfg.sp.eps,
                                     cfg.dram.tau_byte, cfg.dram.eps_byte,
                                     cfg.delta_pi, opt.target_seconds),
      core::Precision::Single, core::MemLevel::DRAM);
  stats::Rng rng(6);
  const powermon::Capture cap = m.run(k, rng).capture;
  for (auto _ : state)
    benchmark::DoNotOptimize(powermon::sample_mean(cap, opt.sampler, rng));
}
BENCHMARK(BM_PowermonSampleMean);

// Two rails over a 0.25 s linear ramp: no sample reads a flat stretch, so
// every one pays the jitter draw, the trace lookup and the ADC.
void BM_PowermonSampleMeanRamp(benchmark::State& state) {
  powermon::PowerTrace t;
  t.add_point(0.0, 20.0);
  t.add_point(0.25, 220.0);
  const powermon::Capture cap =
      powermon::split_across_rails(t, powermon::cpu_rails(), 0.0, 0.25);
  stats::Rng rng(6);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        powermon::sample_mean(cap, powermon::SamplerConfig{}, rng));
}
BENCHMARK(BM_PowermonSampleMeanRamp);

// One full default suite of GTX Titan at the Table I seed: the
// microbenchmark half of a paper-fit campaign (simulation, sampling and
// the mean estimator for all 260-odd kernel runs).
void BM_RunSuiteTable1(benchmark::State& state) {
  const platforms::PlatformSpec& spec = platforms::platform("GTX Titan");
  const sim::SimMachine m = sim::make_machine(spec);
  const std::uint64_t seed = microbench::campaign_seed(20140519, spec.name);
  for (auto _ : state) {
    stats::Rng rng(seed);
    benchmark::DoNotOptimize(
        microbench::run_suite(m, microbench::SuiteOptions{}, rng));
  }
}
BENCHMARK(BM_RunSuiteTable1);

void BM_SuiteRunDramSweep(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("Xeon Phi"));
  microbench::SuiteOptions opt;
  opt.repeats = 1;
  opt.target_seconds = 0.1;
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  stats::Rng rng(3);
  for (auto _ : state)
    benchmark::DoNotOptimize(microbench::run_suite(m, opt, rng));
}
BENCHMARK(BM_SuiteRunDramSweep);

void BM_FitCappedModel(benchmark::State& state) {
  const sim::SimMachine m =
      sim::make_machine(platforms::platform("GTX 680"));
  microbench::SuiteOptions opt;
  opt.repeats = 2;
  opt.target_seconds = 0.1;
  opt.include_double = false;
  opt.include_caches = false;
  opt.include_random = false;
  stats::Rng rng(4);
  const microbench::SuiteData data = microbench::run_suite(m, opt, rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(fit::fit_observations(data.dram_sp));
}
BENCHMARK(BM_FitCappedModel);

// The shape paper-fit runs per campaign: the default full suite of one
// Table I platform, fitted capped then uncapped (idle and max-power
// hints, DP, cache levels and random access included).
void BM_FitMachinePaperShape(benchmark::State& state) {
  const platforms::PlatformSpec& spec = platforms::platform("GTX 680");
  stats::Rng rng(microbench::campaign_seed(20140519, spec.name));
  const microbench::SuiteData data = microbench::run_suite(
      sim::make_machine(spec), microbench::SuiteOptions{}, rng);
  fit::FitOptions uncapped;
  uncapped.kind = fit::ModelKind::Uncapped;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit::fit_machine(data));
    benchmark::DoNotOptimize(fit::fit_machine(data, uncapped));
  }
}
BENCHMARK(BM_FitMachinePaperShape);

// One Levenberg-Marquardt solve of the binding branch's inner problem,
// as the capped fit runs it at each of its 21 profile points: three
// iterations over log (eps_flop, eps_mem, pi1) at a fixed delta_pi, on one
// Table I suite's DRAM/SP observations. The start is the fitted machine's
// constants scaled by 0.8 and the cap is 0.9 of the fitted one, so every
// iteration takes a step.
void BM_LevmarBindingInner(benchmark::State& state) {
  const platforms::PlatformSpec& spec = platforms::platform("GTX 680");
  stats::Rng rng(microbench::campaign_seed(20140519, spec.name));
  const microbench::SuiteData data = microbench::run_suite(
      sim::make_machine(spec), microbench::SuiteOptions{}, rng);
  core::MachineParams at = fit::fit_machine(data).machine;
  at.delta_pi *= 0.9;
  fit::ObservationColumns cols(data.dram_sp);
  const std::vector<double> seed = {std::log(0.8 * at.eps_flop),
                                    std::log(0.8 * at.eps_mem),
                                    std::log(0.8 * at.pi1)};
  const fit::ResidualFn residuals = [&](std::span<const double> x,
                                        std::vector<double>& r) {
    core::MachineParams m = at;
    m.eps_flop = std::exp(x[0]);
    m.eps_mem = std::exp(x[1]);
    m.pi1 = std::exp(x[2]);
    r.resize(3 * cols.size());
    cols.residuals(m, r);
  };
  fit::LevmarOptions opt;
  opt.max_iterations = 3;
  int iterations = 0;
  for (auto _ : state) {
    const fit::LevmarResult lm =
        fit::levenberg_marquardt(residuals, seed, opt);
    iterations = lm.iterations;
    benchmark::DoNotOptimize(lm.rss);
  }
  state.counters["observations"] = static_cast<double>(data.dram_sp.size());
  state.counters["iterations"] = iterations;
}
BENCHMARK(BM_LevmarBindingInner);

void BM_NativeIntensityLadder(benchmark::State& state) {
  const auto elements = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(microbench::run_intensity_ladder(
        elements, 8, core::Precision::Single));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(elements));
}
BENCHMARK(BM_NativeIntensityLadder)->Arg(1 << 12)->Arg(1 << 16);

void BM_NativeStreamTriad(benchmark::State& state) {
  const auto elements = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        microbench::run_stream_triad(elements, core::Precision::Double));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(elements) * 24);
}
BENCHMARK(BM_NativeStreamTriad)->Arg(1 << 14)->Arg(1 << 18);

void BM_NativePointerChase(benchmark::State& state) {
  stats::Rng rng(5);
  const auto slots = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(
        microbench::run_pointer_chase(slots, slots, rng));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(slots));
}
BENCHMARK(BM_NativePointerChase)->Arg(1 << 12)->Arg(1 << 18);

// ---- Serving path ----------------------------------------------------------

const std::vector<std::string>& predict_pool() {
  static const std::vector<std::string> pool = sim::make_predict_pool(64);
  return pool;
}

/// predict_batch lines of n elements each (16 keys at 256, else 64).
std::vector<std::string> batch_pool(int n) {
  return sim::make_batch_pool(n == 256 ? 16 : 64, {n});
}

serve::ServerOptions uncached() {
  serve::ServerOptions opt;
  opt.cache_capacity = 0;  // every request takes the full miss path
  return opt;
}

void warm(serve::Server& server, const std::vector<std::string>& pool) {
  for (const std::string& line : pool) (void)server.handle_now(line);
}

/// One pool line per iteration through handle_into, round robin from
/// `first`, into one reused reply buffer.
void handle_pool(benchmark::State& state, serve::Server& server,
                 const std::vector<std::string>& pool, std::size_t first = 0) {
  std::string out;
  std::size_t i = first % pool.size();
  for (auto _ : state) {
    server.handle_into(pool[i], out);
    if (++i == pool.size()) i = 0;
  }
}

// The steady-state hit path. Every thread probes the same warmed Server,
// so items/s at threads:4 is the shared cache's aggregate hit rate.
void BM_ServeCachedHit(benchmark::State& state) {
  static serve::Server server;
  [[maybe_unused]] static const bool warmed =
      (warm(server, predict_pool()), true);
  handle_pool(state, server, predict_pool(),
              static_cast<std::size_t>(state.thread_index()) * 16);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCachedHit)->Threads(1)->Threads(4)->UseRealTime();

// Parse, model evaluation and render with the cache off.
void BM_ServeMissPredict(benchmark::State& state) {
  serve::Server server(uncached());
  handle_pool(state, server, predict_pool());
}
BENCHMARK(BM_ServeMissPredict);

// predict_batch on the miss path without the transport: items/s is
// predictions/s, the SoA evaluate and render cost per element.
void BM_ServePredictBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  serve::Server server(uncached());
  handle_pool(state, server, batch_pool(n));
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ServePredictBatch)->Arg(1)->Arg(64)->Arg(256);

// A predict line through the owned parse and through the in-situ parse
// the protocol uses.
void BM_ServeJsonParse(benchmark::State& state,
                       serve::Json (*parse)(std::string_view, int)) {
  const std::vector<std::string>& pool = predict_pool();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse(pool[i], 64));
    if (++i == pool.size()) i = 0;
  }
}
BENCHMARK_CAPTURE(BM_ServeJsonParse, parse, &serve::Json::parse);
BENCHMARK_CAPTURE(BM_ServeJsonParse, parse_in_situ,
                  &serve::Json::parse_in_situ);

// hit: the cache probe a control loop pays asking the same question each
// period. miss: parse, the ladder sweep (race/steady/cap plans per
// operating point), argmin and the plan-table render.
void BM_ServePolicyAdvise(benchmark::State& state, bool hit) {
  const std::vector<std::string> pool = sim::make_policy_pool();
  serve::Server server(hit ? serve::ServerOptions{} : uncached());
  if (hit) warm(server, pool);
  handle_pool(state, server, pool);
}
BENCHMARK_CAPTURE(BM_ServePolicyAdvise, hit, true);
BENCHMARK_CAPTURE(BM_ServePolicyAdvise, miss, false);

// observe with 8 tuples: parse, the learner update per tuple and the
// re-solve window write. Never cached.
void BM_ServeObserveIngest(benchmark::State& state) {
  serve::Server server;
  handle_pool(state, server, sim::make_observe_pool(64, 42));
}
BENCHMARK(BM_ServeObserveIngest);

// A warmed predict through submit(): a Light request finishes on the
// submitting thread, so this is submit's inline path (probe, hit, done).
void BM_ServeSubmitLight(benchmark::State& state) {
  serve::Server server;
  server.start();
  const std::vector<std::string>& pool = predict_pool();
  warm(server, pool);
  std::size_t i = 0;
  for (auto _ : state) {
    bool answered = false;
    if (!server.submit(pool[i], [&](std::string&&) { answered = true; }) ||
        !answered) {
      state.SkipWithError("a Light request did not finish inside submit");
      break;
    }
    if (++i == pool.size()) i = 0;
  }
  server.shutdown();
}
BENCHMARK(BM_ServeSubmitLight);

/// A Server behind a one-shard TcpListener on an ephemeral loopback
/// port, its event loop on a thread of its own, and one client socket.
struct TcpServe {
  serve::Server server;
  serve::TcpListener listener;
  std::atomic<bool> stop{false};
  std::thread loop;
  int fd = -1;
  std::string error;

  static serve::ServerOptions options(bool cache) {
    serve::ServerOptions opt = cache ? serve::ServerOptions{} : uncached();
    opt.threads = 2;
    return opt;
  }
  static serve::TcpOptions tcp_options() {
    serve::TcpOptions tcp;
    tcp.port = 0;
    tcp.poll_interval_ms = 5;
    return tcp;
  }

  explicit TcpServe(bool cache)
      : server(options(cache)), listener(server, tcp_options()) {
    server.start();
    if (!listener.open(&error)) return;
    loop = std::thread([this] { listener.run(stop); });
    fd = sim::connect_tcp("127.0.0.1", listener.port());
    if (fd < 0) error = "cannot connect to the listener";
  }
  ~TcpServe() {
    if (fd >= 0) ::close(fd);
    stop.store(true, std::memory_order_release);
    if (loop.joinable()) loop.join();
    server.shutdown();
  }
};

/// One pool line per iteration as a blocking round trip, sent every
/// `gap` on a fixed schedule when gap > 0 (then each iteration's time is
/// its round trip alone). Counters: round-trip p50/p99 in µs.
void tcp_round_trips(benchmark::State& state, TcpServe& tcp,
                     const std::vector<std::string>& pool,
                     std::chrono::microseconds gap) {
  using Clock = std::chrono::steady_clock;
  if (!tcp.error.empty()) {
    state.SkipWithError(tcp.error.c_str());
    return;
  }
  std::vector<double> rtt_us;
  rtt_us.reserve(static_cast<std::size_t>(
      std::min<benchmark::IterationCount>(state.max_iterations, 1 << 20)));
  std::string reply;
  std::size_t i = 0;
  auto next_send = Clock::now();
  for (auto _ : state) {
    if (gap.count() > 0) {
      std::this_thread::sleep_until(next_send);
      next_send += gap;
    }
    const auto t0 = Clock::now();
    const bool ok = sim::request_once(tcp.fd, pool[i], reply);
    const std::chrono::duration<double> rtt = Clock::now() - t0;
    if (!ok || !sim::reply_ok(reply)) {
      state.SkipWithError("round trip failed");
      break;
    }
    if (gap.count() > 0) state.SetIterationTime(rtt.count());
    rtt_us.push_back(rtt.count() * 1e6);
    if (++i == pool.size()) i = 0;
  }
  std::sort(rtt_us.begin(), rtt_us.end());
  state.counters["p50_us"] = stats::nearest_rank(rtt_us, 0.50);
  state.counters["p99_us"] = stats::nearest_rank(rtt_us, 0.99);
}

// predict_batch with the cache off, one request per round trip: items/s
// is the predictions/s a client sees. Everything a request pays once
// (framing, the shard's read, the reply's write) amortizes over the batch.
void BM_ServeTcpPredictBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  TcpServe tcp(false);
  tcp_round_trips(state, tcp, batch_pool(n), {});
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ServeTcpPredictBatch)->Arg(1)->Arg(64)->Arg(256)->UseRealTime();

// One warmed hit every Arg µs: the shard idles between requests, so the
// round trip includes what it pays to notice a request after a gap (a
// park and wake unless it is still spinning), as in perfbench cold-open.
void BM_ServeTcpPacedHit(benchmark::State& state) {
  TcpServe tcp(true);
  std::string reply;  // warm the shard's own cache partition
  for (const std::string& line : predict_pool())
    (void)sim::request_once(tcp.fd, line, reply);
  tcp_round_trips(state, tcp, predict_pool(),
                  std::chrono::microseconds(state.range(0)));
}
BENCHMARK(BM_ServeTcpPacedHit)->Arg(200)->UseManualTime()->Iterations(4000);

}  // namespace

BENCHMARK_MAIN();
