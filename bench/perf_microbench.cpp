// Library microbenchmarks (google-benchmark): regression guard on the hot
// paths — model evaluation, simulator runs, sampling, fitting, and the
// native host kernels.

#include <benchmark/benchmark.h>

#include <cmath>
#include <span>
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
#include "sim/factory.hpp"

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

}  // namespace

BENCHMARK_MAIN();
