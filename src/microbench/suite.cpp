#include "microbench/suite.hpp"

#include <algorithm>

#include "microbench/cache_bench.hpp"
#include "microbench/intensity.hpp"
#include "microbench/pointer_chase.hpp"
#include "powermon/integrator.hpp"

namespace archline::microbench {

std::vector<const Observation*> SuiteData::all() const {
  std::vector<const Observation*> out;
  out.reserve(total_observations());
  for (const auto* group : {&dram_sp, &dram_dp, &l1, &l2, &random})
    for (const Observation& o : *group) out.push_back(&o);
  return out;
}

std::size_t SuiteData::total_observations() const noexcept {
  return dram_sp.size() + dram_dp.size() + l1.size() + l2.size() +
         random.size();
}

std::vector<Observation> measure_kernel(
    const sim::SimMachine& machine, const sim::KernelDesc& kernel,
    int repeats, const powermon::SamplerConfig& sampler, stats::Rng& rng) {
  std::vector<Observation> out;
  out.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const sim::RunResult run = machine.run(kernel, rng);
    const powermon::Measurement m =
        powermon::sample_mean(run.capture, sampler, rng);
    Observation o;
    o.kernel = kernel;
    o.seconds = m.seconds;
    o.joules = m.joules;
    o.watts = m.avg_watts;
    o.true_regime = run.regime;
    o.true_utilization = run.utilization;
    out.push_back(std::move(o));
  }
  return out;
}

namespace {

void append(std::vector<Observation>& dst, std::vector<Observation>&& src) {
  dst.insert(dst.end(), std::make_move_iterator(src.begin()),
             std::make_move_iterator(src.end()));
}

std::vector<Observation> intensity_sweep(
    const sim::SimMachine& machine, const std::vector<double>& intensities,
    core::Precision precision, const SuiteOptions& opt, stats::Rng& rng) {
  std::vector<Observation> out;
  const sim::SimConfig& cfg = machine.config();
  const sim::FlopCosts& fc =
      precision == core::Precision::Single ? cfg.sp : cfg.dp.value();
  for (const double intensity : intensities) {
    const double bytes = bytes_for_duration(
        intensity, fc.tau, fc.eps, cfg.dram.tau_byte, cfg.dram.eps_byte,
        cfg.delta_pi, opt.target_seconds);
    const sim::KernelDesc k =
        intensity_kernel(intensity, bytes, precision, core::MemLevel::DRAM);
    append(out, measure_kernel(machine, k, opt.repeats, opt.sampler, rng));
  }
  return out;
}

}  // namespace

SuiteData run_suite(const sim::SimMachine& machine,
                    const SuiteOptions& options, stats::Rng& rng) {
  SuiteOptions opt = options;
  if (opt.intensities.empty()) opt.intensities = default_intensity_grid();

  SuiteData data;
  data.platform = machine.name();

  if (opt.include_idle) {
    const powermon::Capture idle =
        machine.idle_capture(opt.target_seconds, rng);
    data.idle_watts =
        powermon::sample_mean(idle, opt.sampler, rng).avg_watts;
  }

  data.dram_sp = intensity_sweep(machine, opt.intensities,
                                 core::Precision::Single, opt, rng);

  if (opt.include_double && machine.config().dp)
    data.dram_dp = intensity_sweep(machine, opt.intensities,
                                   core::Precision::Double, opt, rng);

  if (opt.include_caches) {
    for (const core::MemLevel level :
         {core::MemLevel::L1, core::MemLevel::L2}) {
      const bool present = level == core::MemLevel::L1
                               ? machine.config().l1.has_value()
                               : machine.config().l2.has_value();
      if (!present) continue;
      auto kernels = cache_sweep(machine, level, opt.intensities,
                                 core::Precision::Single,
                                 opt.target_seconds);
      std::vector<Observation>& dst =
          level == core::MemLevel::L1 ? data.l1 : data.l2;
      for (const sim::KernelDesc& k : kernels)
        append(dst, measure_kernel(machine, k, opt.repeats, opt.sampler, rng));
    }
  }

  if (opt.include_random && machine.config().random) {
    const double accesses =
        opt.target_seconds / machine.config().random->tau_access;
    const sim::KernelDesc k =
        random_access_kernel(accesses, 256.0 * 1024 * 1024);
    append(data.random,
           measure_kernel(machine, k, opt.repeats, opt.sampler, rng));
  }

  return data;
}

}  // namespace archline::microbench
