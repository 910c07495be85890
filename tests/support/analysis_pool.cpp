#include "support/analysis_pool.hpp"

#include <cmath>
#include <utility>

#include "platforms/platform_db.hpp"
#include "serve/json.hpp"

namespace archline::sim {

std::vector<std::string> make_analysis_pool() {
  static const char* kMetrics[] = {"efficiency", "performance", "power"};
  const auto names = platforms::platform_names();
  std::vector<std::string> pool;
  pool.reserve(3 * names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const char* metric = kMetrics[i % 3];
    serve::Json crossover = serve::Json::object();
    crossover.set("type", "crossover");
    crossover.set("a", names[i]);
    crossover.set("b", names[(i + 1) % names.size()]);
    crossover.set("metric", metric);
    pool.push_back(crossover.dump());
    serve::Json sensitivity = serve::Json::object();
    sensitivity.set("type", "sensitivity");
    sensitivity.set("platform", names[i]);
    sensitivity.set("metric", metric);
    sensitivity.set("intensity", std::exp2(static_cast<double>(i % 6) - 1.0));
    pool.push_back(sensitivity.dump());
    serve::Json intensities = serve::Json::array();
    for (const double x : {1.0, 4.0, 16.0}) intensities.push_back(x);
    serve::Json divisors = serve::Json::array();
    for (const double d : {1.0, 2.0}) divisors.push_back(d);
    serve::Json sweep = serve::Json::object();
    sweep.set("type", "scenario_sweep");
    sweep.set("platform", names[i]);
    sweep.set("intensities", std::move(intensities));
    sweep.set("cap_divisors", std::move(divisors));
    pool.push_back(sweep.dump());
  }
  return pool;
}

}  // namespace archline::sim
