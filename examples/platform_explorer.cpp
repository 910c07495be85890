// platform_explorer: everything archline knows about one Table I
// platform, on one page — constants, balances, regime map, sensitivities,
// workload standings, and the what-if headlines.
//
// Usage: platform_explorer [platform]      (default "Xeon Phi")

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/analysis.hpp"
#include "core/scenarios.hpp"
#include "core/sensitivity.hpp"
#include "core/workloads.hpp"
#include "platforms/platform_db.hpp"
#include "report/si.hpp"
#include "report/table.hpp"

namespace {

std::string format_value(double v) {
  if (std::isinf(v)) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The model constants as "# name" then "key = value" lines, 17
/// significant digits (lossless for double); delta_pi prints "inf"
/// when uncapped.
std::string to_text(const archline::core::MachineParams& m,
                    const std::string& name) {
  std::ostringstream out;
  out << "# " << name << '\n';
  out << "tau_flop = " << format_value(m.tau_flop) << '\n';
  out << "eps_flop = " << format_value(m.eps_flop) << '\n';
  out << "tau_mem = " << format_value(m.tau_mem) << '\n';
  out << "eps_mem = " << format_value(m.eps_mem) << '\n';
  out << "pi1 = " << format_value(m.pi1) << '\n';
  out << "delta_pi = " << format_value(m.delta_pi) << '\n';
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace archline;
  namespace rp = report;

  const std::string name = argc > 1 ? argv[1] : "Xeon Phi";
  if (!platforms::has_platform(name)) {
    std::printf("unknown platform '%s'. available:\n", name.c_str());
    for (const std::string& n : platforms::platform_names())
      std::printf("  %s\n", n.c_str());
    return 1;
  }
  const platforms::PlatformSpec& spec = platforms::platform(name);
  const core::MachineParams m = spec.machine();
  const core::EfficiencySummary s = core::summarize_efficiency(m);

  std::printf("%s — %s (%d nm, %s)\n\n", spec.name.c_str(),
              spec.processor.c_str(), spec.process_nm,
              platforms::to_string(spec.device_class));

  std::printf("model constants:\n%s\n", to_text(m, spec.name).c_str());

  rp::Table t({"quantity", "value"});
  t.add_row({"sustained flops",
             rp::si_format(s.sustained_flops, "flop/s", 3) + " (" +
                 rp::percent_format(spec.sustained_flop_fraction()) +
                 " of peak)"});
  t.add_row({"sustained bandwidth",
             rp::si_format(s.sustained_bandwidth, "B/s", 3) + " (" +
                 rp::percent_format(spec.sustained_bandwidth_fraction()) +
                 ")"});
  t.add_row({"peak energy efficiency",
             rp::si_format(s.peak_flops_per_joule, "flop/J", 3)});
  t.add_row({"peak data efficiency",
             rp::si_format(s.peak_bytes_per_joule, "B/J", 3)});
  t.add_row({"effective stream energy",
             rp::si_format(core::effective_stream_energy_per_byte(m),
                           "J/B", 3) +
                 " (incl pi1 charge)"});
  t.add_row({"constant power fraction",
             rp::percent_format(s.constant_fraction)});
  t.add_row({"time balance B_tau",
             rp::sig_format(s.balance, 3) + " flop:B"});
  t.add_row({"cap window [B-, B+]",
             "[" + rp::sig_format(s.balance_lo, 3) + ", " +
                 rp::sig_format(s.balance_hi, 3) + "]"});
  t.add_row({"power shrink at dpi/8",
             rp::sig_format(core::power_reduction_factor(m, 8.0), 3) +
                 "x of the ideal 8x"});
  if (spec.has_random_access()) {
    const core::RandomAccessMachine rm = spec.random_machine();
    t.add_row({"random access",
               rp::si_format(rm.access_rate(), "acc/s", 3) + ", " +
                   rp::si_format(rm.effective_energy_per_access(),
                                 "J/acc", 3) +
                   " effective"});
  }
  std::printf("%s\n", t.to_text().c_str());

  // Sensitivity: what limits this platform per workload class.
  rp::Table st({"intensity", "regime", "perf limited by",
                "energy limited by"});
  for (const double intensity : {0.25, 2.0, 16.0, 128.0}) {
    const auto perf = core::sensitivity_profile(
        m, core::Metric::Performance, intensity);
    const auto eff = core::sensitivity_profile(
        m, core::Metric::EnergyEfficiency, intensity);
    st.add_row({rp::intensity_label(intensity),
                core::regime_name(core::regime_at(m, intensity)),
                core::to_string(perf.dominant()),
                core::to_string(eff.dominant())});
  }
  std::printf("what limits it (largest |elasticity|):\n%s\n",
              st.to_text().c_str());

  // Standing per workload archetype (rank among the 12 by flop/J).
  std::vector<std::pair<std::string, core::MachineParams>> machines;
  for (const platforms::PlatformSpec& p : platforms::all_platforms())
    machines.emplace_back(p.name, p.machine());
  rp::Table wt({"workload", "I rep", "flop/J rank", "flop/s rank"});
  for (const core::WorkloadProfile& w : core::workload_library()) {
    if (w.pattern == core::AccessPattern::Random) continue;
    const auto by_eff =
        core::rank_machines(w, machines, core::RankBy::Efficiency);
    const auto by_perf =
        core::rank_machines(w, machines, core::RankBy::Performance);
    const auto rank_of = [&](const auto& ranked) {
      for (std::size_t i = 0; i < ranked.size(); ++i)
        if (ranked[i].machine_name == name) return i + 1;
      return std::size_t{0};
    };
    wt.add_row({w.name,
                rp::sig_format(w.representative_intensity(), 2),
                rp::sig_format(rank_of(by_eff), 2) + " / 12",
                rp::sig_format(rank_of(by_perf), 2) + " / 12"});
  }
  std::printf("standing per workload archetype:\n%s\n",
              wt.to_text().c_str());
  return 0;
}
