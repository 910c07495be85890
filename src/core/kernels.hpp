#pragma once
// Structure-of-arrays batch kernels over the roofline/energy model.
//
// The scalar functions in roofline.hpp evaluate one (machine, workload)
// pair per call; sweeps and batch endpoints need thousands. These
// kernels evaluate a whole workload batch or intensity grid against one
// machine (or one metric across many machines) in a single pass over
// contiguous arrays, with per-machine derived constants hoisted out of
// the loop and the loop bodies written so the max-of-three time law,
// the linear energy form, and the power-cap clamp auto-vectorize under
// -O2. predict_batch and metric_curves additionally have an explicit
// AVX2 path (mul/add/div/max/cmp/blend only — never FMA), selected at
// runtime via cpuid.
//
// CONTRACT — bit identity. Every kernel, on every path, produces
// outputs bit-identical to the scalar roofline.hpp functions:
//
//   predict_batch[i]  == time()/energy()/avg_power()/regime() and the
//                        derived flops/t, flops/e ratios of the serve
//                        layer's add_prediction()
//   metric_curves[i]  == avg_power_closed_form()/performance()/
//                        energy_efficiency()/regime_at()
//   metric_value_machines[i] == metric_value()
//
// The golden-reply corpus (tests/data/) and the response cache both pin
// reply bytes, so "close" is not good enough; tests/test_kernels.cpp
// asserts the identity over random machines on every path. The rules
// that make it hold:
//
//   * identical operation order and associativity as the scalar code
//     (hoisting a per-machine subexpression is safe — same expression,
//     evaluated once — but reassociating a per-element one is not);
//   * no FMA contraction: the AVX2 translation unit is compiled with
//     -mavx2 only, and multiplies/adds stay separate intrinsics;
//   * uncapped machines (delta_pi == inf) take a machine-level branch
//     instead of arithmetic that would produce inf/inf.

#include <cstddef>
#include <span>
#include <vector>

#include "core/machine_params.hpp"
#include "core/roofline.hpp"

namespace archline::core {

/// SoA workload batch: element i is the workload (flops[i], bytes[i]).
struct WorkloadBatch {
  std::vector<double> flops;
  std::vector<double> bytes;

  [[nodiscard]] std::size_t size() const noexcept { return flops.size(); }
  void clear() noexcept {
    flops.clear();
    bytes.clear();
  }
  void reserve(std::size_t n) {
    flops.reserve(n);
    bytes.reserve(n);
  }
  void push_back(const Workload& w) {
    flops.push_back(w.flops);
    bytes.push_back(w.bytes);
  }
};

/// SoA prediction outputs, field-for-field the serve layer's
/// add_prediction(): performance is flops/time, efficiency flops/energy.
struct PredictionBatch {
  std::vector<double> intensity;
  std::vector<double> time_s;
  std::vector<double> energy_j;
  std::vector<double> avg_power_w;
  std::vector<double> performance;
  std::vector<double> efficiency;
  std::vector<Regime> regime;

  [[nodiscard]] std::size_t size() const noexcept { return time_s.size(); }
  void resize(std::size_t n);
};

/// SoA closed-form metric curves on an intensity grid — one lane per
/// intensity, matching avg_power_closed_form / performance /
/// energy_efficiency / regime_at.
struct MetricCurve {
  std::vector<double> power;
  std::vector<double> performance;
  std::vector<double> efficiency;
  std::vector<Regime> regime;

  [[nodiscard]] std::size_t size() const noexcept { return power.size(); }
  void resize(std::size_t n);
};

// ---------------------------------------------------------------------------
// Runtime dispatch

/// True when the AVX2 translation unit was compiled in (kernels_avx2.cpp
/// rather than the stub). Defined by whichever of the two the build
/// selected.
[[nodiscard]] bool avx2_compiled_in() noexcept;

/// True when the AVX2 kernels are both compiled in and supported by the
/// CPU we are running on — i.e. calling the *_avx2 entry points is safe.
/// Resolved once on first use.
[[nodiscard]] bool avx2_available() noexcept;

// ---------------------------------------------------------------------------
// Kernels
//
// The un-suffixed entry points dispatch on avx2_available(); the
// _scalar/_avx2 variants are exposed so the equivalence tests can pin
// both paths explicitly. When AVX2 is not compiled in, the _avx2
// variants delegate to scalar.

/// Eqs. (1)–(3) + regime for every workload element against one machine.
void predict_batch(const MachineParams& m, const WorkloadBatch& in,
                   PredictionBatch& out);
void predict_batch_scalar(const MachineParams& m, const WorkloadBatch& in,
                          PredictionBatch& out);
void predict_batch_avx2(const MachineParams& m, const WorkloadBatch& in,
                        PredictionBatch& out);

/// Closed-form power/performance/efficiency/regime for one machine over
/// an intensity grid (the scenario_sweep / throttle_sweep shape).
void metric_curves(const MachineParams& m, std::span<const double> intensities,
                   MetricCurve& out);
void metric_curves_scalar(const MachineParams& m,
                          std::span<const double> intensities,
                          MetricCurve& out);
void metric_curves_avx2(const MachineParams& m,
                        std::span<const double> intensities, MetricCurve& out);

/// One closed-form metric for MANY machines at ONE intensity (the
/// sensitivity / crossover-matrix shape). Auto-vectorized only: the
/// machine count is small (6 params x 2 directions, or one platform
/// table), so an explicit SIMD path would not measurably pay.
void metric_value_machines(std::span<const MachineParams> machines,
                           Metric metric, double intensity, double* out);

}  // namespace archline::core
