#include "vocab.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/roofline.hpp"
#include "platforms/platform_db.hpp"
#include "serve/json.hpp"

namespace perfbench::vocab {
namespace {

using archline::core::MachineParams;
using archline::core::Workload;
using archline::serve::Json;
namespace platforms = archline::platforms;

enum Purpose : std::uint64_t {
  kHotKeys = 1,
  kReference = 3,
};

const std::vector<std::string>& names() {
  static const std::vector<std::string> n = platforms::platform_names();
  return n;
}

/// Platforms with a DVFS ladder — the only ones policy_advise answers.
const std::vector<std::size_t>& ladder_platforms() {
  static const std::vector<std::size_t> idx = [] {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < names().size(); ++i)
      if (!platforms::platform(names()[i]).operating_points.empty())
        out.push_back(i);
    return out;
  }();
  return idx;
}

const std::string& pick_platform(Rng& rng) {
  return names()[static_cast<std::size_t>(rng.below(names().size()))];
}

double log_uniform(Rng& rng, double lo_exp2, double hi_exp2) {
  return std::exp2(rng.uniform(lo_exp2, hi_exp2));
}

void begin(std::string& out, std::string_view type) {
  out += "{\"type\":\"";
  out += type;
  out += '"';
}
void with_id(std::string& out, std::uint64_t id) {
  out += ",\"id\":";
  out += std::to_string(id);
}
void num(std::string& out, std::string_view key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  Json::append_number(out, v);
}
void str(std::string& out, std::string_view key, std::string_view v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += v;
  out += '"';
}

void workload(Rng& rng, std::string& out) {
  num(out, "flops", std::round(log_uniform(rng, 26.0, 37.0)));
  num(out, "intensity", log_uniform(rng, -4.0, 9.0));
}

void predict(Rng& rng, std::string& out) {
  str(out, "platform", pick_platform(rng));
  workload(rng, out);
  out += '}';
}

void predict_batch(Rng& rng, std::size_t n, std::string& out) {
  str(out, "platform", pick_platform(rng));
  out += ",\"elements\":[";
  for (std::size_t i = 0; i < n; ++i) {
    out += i ? ",{\"flops\":" : "{\"flops\":";
    Json::append_number(out, std::round(log_uniform(rng, 26.0, 37.0)));
    num(out, "intensity", log_uniform(rng, -4.0, 9.0));
    out += '}';
  }
  out += "]}";
}

void policy_advise(Rng& rng, std::string& out) {
  static constexpr const char* kObjectives[] = {"min_energy", "min_time",
                                                "min_edp"};
  const auto& ladder = ladder_platforms();
  const auto& spec = platforms::platform(
      names()[ladder[static_cast<std::size_t>(rng.below(ladder.size()))]]);
  const double flops = std::round(log_uniform(rng, 30.0, 40.0));
  const double intensity = log_uniform(rng, -3.0, 8.0);
  str(out, "platform", spec.name);
  str(out, "objective", kObjectives[rng.below(3)]);
  num(out, "flops", flops);
  num(out, "intensity", intensity);
  // Half the questions carry a deadline with slack, which the nominal
  // point of the Table I model always meets, so every question has an
  // answer.
  if (rng.uniform() < 0.5) {
    const double t = archline::core::time(
        spec.machine(), Workload::from_intensity(flops, intensity));
    num(out, "period_s", t * rng.uniform(1.5, 3.0));
  }
  out += '}';
}

void sensitivity(Rng& rng, std::string& out) {
  static constexpr const char* kMetrics[] = {"performance", "efficiency",
                                             "power"};
  str(out, "platform", pick_platform(rng));
  num(out, "intensity", log_uniform(rng, -4.0, 9.0));
  str(out, "metric", kMetrics[rng.below(3)]);
  out += '}';
}

void crossover(Rng& rng, std::string& out) {
  static constexpr const char* kMetrics[] = {"performance", "efficiency",
                                             "power"};
  const std::size_t a = static_cast<std::size_t>(rng.below(names().size()));
  std::size_t b = static_cast<std::size_t>(rng.below(names().size() - 1));
  if (b >= a) ++b;
  str(out, "a", names()[a]);
  str(out, "b", names()[b]);
  str(out, "metric", kMetrics[rng.below(3)]);
  num(out, "lo", log_uniform(rng, -7.0, -3.0));
  num(out, "hi", log_uniform(rng, 7.0, 10.0));
  out += '}';
}

void fit(Rng& rng, std::string& out) {
  const auto& spec = platforms::platform(pick_platform(rng));
  const MachineParams m = spec.machine();
  num(out, "idle_watts", spec.idle_power);
  out += ",\"observations\":[";
  for (int p = 0; p < 12; ++p) {
    const Workload w = Workload::from_intensity(1e9, std::exp2(-4.0 + p));
    out += p ? ",{" : "{";
    out += "\"flops\":";
    Json::append_number(out, w.flops);
    num(out, "bytes", w.bytes);
    num(out, "seconds", archline::core::time(m, w) * rng.lognormal(0.0, 0.01));
    num(out, "joules", archline::core::energy(m, w) * rng.lognormal(0.0, 0.01));
    out += '}';
  }
  out += "]}";
}

/// An observe batch of 8 tuples for platform `platform_index`, 1%
/// lognormal noise around the Table I model.
void observe_line(Rng& rng, std::size_t platform_index, std::string& out) {
  const MachineParams m = platforms::platform(names()[platform_index]).machine();
  begin(out, "observe");
  str(out, "platform", names()[platform_index]);
  out += ",\"observations\":[";
  const double offset = rng.uniform(0.0, 1.0);
  for (int p = 0; p < 8; ++p) {
    const Workload w = Workload::from_intensity(1e9, std::exp2(-3.0 + p + offset));
    out += p ? ",{" : "{";
    out += "\"flops\":";
    Json::append_number(out, w.flops);
    num(out, "bytes", w.bytes);
    num(out, "seconds", archline::core::time(m, w) * rng.lognormal(0.0, 0.01));
    num(out, "joules", archline::core::energy(m, w) * rng.lognormal(0.0, 0.01));
    out += '}';
  }
  out += "]}";
}

}  // namespace

const char* kind_name(Kind k) noexcept {
  static constexpr const char* kNames[kKindCount] = {
      "predict",  "predict_batch", "policy_advise", "sensitivity",
      "crossover", "params",       "platforms",     "observe",
      "fit",      "refit"};
  return k < kKindCount ? kNames[k] : "unknown";
}

Rng stream(std::uint64_t seed, std::uint64_t purpose,
           std::uint64_t index) noexcept {
  return Rng(seed * 0x9e3779b97f4a7c15ULL + index, purpose);
}

std::span<const std::string> platform_names() { return names(); }

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::draw(Rng& rng) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
  return std::min(static_cast<std::size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<Line> hot_keys(std::uint64_t seed, std::size_t n) {
  // Rank pattern: 13 predict, 4 policy_advise, 3 crossover per 20 ranks;
  // params (one per platform) and platforms sit at fixed ranks.
  static constexpr Kind kPattern[20] = {
      kPredict, kPredict, kPolicyAdvise, kPredict, kCrossover,
      kPredict, kPredict, kPolicyAdvise, kPredict, kPredict,
      kPredict, kCrossover, kPredict, kPolicyAdvise, kPredict,
      kPredict, kPredict, kCrossover, kPredict, kPolicyAdvise};
  Rng rng = stream(seed, kHotKeys);
  std::vector<Line> keys;
  std::set<std::string> seen;
  keys.reserve(n);
  for (std::size_t r = 0; keys.size() < n; ++r) {
    Kind kind = kPattern[keys.size() % 20];
    const std::size_t rank = keys.size();
    if (rank >= 10 && (rank - 10) % 37 == 0 && (rank - 10) / 37 < names().size())
      kind = kParams;
    if (rank == 25) kind = kPlatforms;
    std::string line;
    begin(line, kind_name(kind));
    switch (kind) {
      case kPredict: predict(rng, line); break;
      case kPolicyAdvise: policy_advise(rng, line); break;
      case kCrossover: crossover(rng, line); break;
      case kParams:
        str(line, "platform", names()[(rank - 10) / 37]);
        line += '}';
        break;
      default: line += '}'; break;
    }
    if (seen.insert(line).second) keys.push_back({kind, std::move(line)});
  }
  return keys;
}

Kind cold_line(Rng& rng, std::uint64_t id, std::string& out) {
  const double r = rng.uniform();
  const Kind kind = r < 0.55   ? kPredict
                    : r < 0.70 ? kPredictBatch
                    : r < 0.85 ? kPolicyAdvise
                    : r < 0.95 ? kSensitivity
                               : kCrossover;
  begin(out, kind_name(kind));
  with_id(out, id);
  switch (kind) {
    case kPredict: predict(rng, out); break;
    case kPredictBatch: predict_batch(rng, rng.uniform() < 0.5 ? 8 : 64, out); break;
    case kPolicyAdvise: policy_advise(rng, out); break;
    case kSensitivity: sensitivity(rng, out); break;
    default: crossover(rng, out); break;
  }
  return kind;
}

std::vector<Line> reference_lines(std::uint64_t seed) {
  Rng rng = stream(seed, kReference);
  // observe feeds the platform refit and params then ask about.
  const std::size_t platform = static_cast<std::size_t>(rng.below(names().size()));
  std::vector<Line> out;
  for (int k = 0; k < kKindCount; ++k) {
    const Kind kind = static_cast<Kind>(k);
    std::string line;
    switch (kind) {
      case kObserve:
        observe_line(rng, platform, line);
        break;
      case kFit:
        begin(line, "fit");
        fit(rng, line);
        break;
      case kRefit:
      case kParams:
        begin(line, kind_name(kind));
        str(line, "platform", names()[platform]);
        line += '}';
        break;
      case kPlatforms:
        begin(line, "platforms");
        line += '}';
        break;
      case kPredictBatch:
        begin(line, "predict_batch");
        predict_batch(rng, 64, line);
        break;
      case kPolicyAdvise:
        begin(line, "policy_advise");
        policy_advise(rng, line);
        break;
      case kSensitivity:
        begin(line, "sensitivity");
        sensitivity(rng, line);
        break;
      case kCrossover:
        begin(line, "crossover");
        crossover(rng, line);
        break;
      default:
        begin(line, "predict");
        predict(rng, line);
        break;
    }
    out.push_back({kind, std::move(line)});
  }
  return out;
}

}  // namespace perfbench::vocab
