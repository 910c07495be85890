// perfbench_runner — runs one benchmark workload against archline and
// prints a report line followed by the result line (last on stdout):
//   {"correct":...,"attempted":...,"failed":...,"metrics":{...}}
// Normally started by perfbench/run.py, which builds it first.
//
// Usage:
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    --server PATH --spec PATH --out-dir DIR [--commit ID]
//                    [--archline-build-type TYPE]

#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "common.hpp"
#include "server_proc.hpp"

namespace {

using namespace perfbench;

/// CPUs this process may run on, in order.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

Json cpu_list(const std::vector<int>& cpus) {
  Json a = Json::array();
  for (int c : cpus) a.push_back(c);
  return a;
}

Context parse_args(int argc, char** argv) {
  Context ctx;
  std::string spec_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") ctx.workload = value;
    else if (flag == "--seed") ctx.seed = std::stoull(value);
    else if (flag == "--seconds") ctx.seconds = std::stod(value);
    else if (flag == "--trace") ctx.trace = value == "1";
    else if (flag == "--server") ctx.server = value;
    else if (flag == "--spec") spec_path = value;
    else if (flag == "--out-dir") ctx.out_dir = value;
    else if (flag == "--commit") ctx.commit = value;
    else if (flag == "--archline-build-type") ctx.archline_build_type = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  std::ifstream in(spec_path);
  std::stringstream text;
  text << in.rdbuf();
  if (!in || ctx.workload.empty() || ctx.seconds <= 0)
    throw std::runtime_error("usage: perfbench_runner --workload NAME --seed N "
                             "--seconds S --trace 0|1 --server PATH --spec PATH "
                             "--out-dir DIR");
  ctx.spec = Json::parse(text.str());
  // The server gets the workload's share of the CPUs, the generator the
  // rest; on a single CPU nothing is pinned.
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() >= 2) {
    const double share = ctx.section("server_cpu_share").as_object().empty()
                             ? 0.5
                             : ctx.section("server_cpu_share").number_or(ctx.workload, 0.5);
    const auto n = static_cast<std::ptrdiff_t>(std::clamp<double>(
        std::round(share * static_cast<double>(cpus.size())), 1.0,
        static_cast<double>(cpus.size() - 1)));
    ctx.server_cpus.assign(cpus.begin(), cpus.begin() + n);
    ctx.generator_cpus.assign(cpus.begin() + n, cpus.end());
  }
  return ctx;
}

Json result_line(const RunOutput& out) {
  Json metrics = Json::object();
  for (const Metric& m : out.metrics) {
    // A latency made infinite by failed requests still prints as a number.
    const double v = std::isfinite(m.value) ? m.value : std::numeric_limits<double>::max();
    Json entry = Json::object();
    entry.set("value", v);
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json r = Json::object();
  r.set("correct", out.correct);
  r.set("attempted", std::max<std::uint64_t>(out.attempted, 1));
  r.set("failed", out.failed);
  r.set("metrics", std::move(metrics));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Context ctx;
  try {
    ctx = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 2;
  }
  pin_to(ctx.generator_cpus);

  const HostTicks start = host_ticks();
  RunOutput out;
  try {
    out = ctx.workload == "paper-fit" ? run_paper_fit(ctx) : run_serving(ctx);
  } catch (const CheckFailed& e) {
    out = RunOutput{};
    out.correct = false;
    out.failed = 1;
    out.report.set("check_failed", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }

  const std::string build = PERFBENCH_BUILD_TYPE, archline_build = ctx.archline_build_type;
  Json run = Json::object();
  run.set("workload", ctx.workload);
  run.set("seed", ctx.seed);
  run.set("seconds", ctx.seconds);
  run.set("trace", ctx.trace);
  run.set("commit", ctx.commit);
  run.set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  run.set("server_cpus", cpu_list(ctx.server_cpus));
  run.set("generator_cpus", cpu_list(ctx.generator_cpus));
  run.set("build_type", archline_build);
  run.set("runner_build_type", build);
  run.set("non_release_build", archline_build != "Release" || build != "Release");
  run.set("host_steal_share", steal_share(start, host_ticks()));
  for (const auto& [key, value] : out.report.as_object()) run.set(key, value);
  Json report = Json::object();
  report.set("report", std::move(run));
  std::cout << report.dump() << '\n' << result_line(out).dump() << std::endl;
  return out.correct ? 0 : 1;
}
