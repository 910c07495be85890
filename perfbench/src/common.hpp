#pragma once
// Shared helpers of the benchmark runner: clocks, exact quantiles, the
// run context, and the metric record every workload fills in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "serve/json.hpp"

namespace perfbench {

using archline::serve::Json;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

/// The machine-wide CPU time counters of /proc/stat, in clock ticks.
struct HostTicks {
  std::uint64_t steal = 0, total = 0;
};

inline HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of all CPU time between `a` and `b` that the hypervisor stole.
inline double steal_share(const HostTicks& a, const HostTicks& b) {
  return b.total > a.total
             ? static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total)
             : 0.0;
}

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
/// Infinite entries (failed requests) sort last, so a failure always
/// counts as missing any latency limit.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

template <typename T>
double median(std::vector<T> v) {
  return quantile(std::move(v), 0.5);
}

/// Thrown when a reply or a fit is wrong: the run reports correct=false.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Everything a workload needs from the command line and spec.json.
struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string server;   ///< archline_serverd path
  std::string out_dir;  ///< where span files go
  std::string commit;
  std::string archline_build_type = "unknown";  ///< from the archline build tree
  Json spec;            ///< parsed perfbench/spec.json
  std::vector<int> server_cpus;
  std::vector<int> generator_cpus;

  [[nodiscard]] const Json& section(std::string_view name) const {
    const Json* s = spec.find(name);
    if (!s) throw std::runtime_error("spec.json lacks " + std::string(name));
    return *s;
  }
  [[nodiscard]] double number(std::string_view sec, std::string_view key) const {
    const Json* v = section(sec).find(key);
    if (!v) throw std::runtime_error("spec.json lacks " + std::string(sec) + "." +
                                     std::string(key));
    return v->as_number();
  }
};

/// One metric as printed: value plus unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end (trace 0) or per-layer (trace 1)
  Json report = Json::object();  ///< everything else, printed before the result

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

RunOutput run_serving(const Context& ctx);
RunOutput run_paper_fit(const Context& ctx);

}  // namespace perfbench
