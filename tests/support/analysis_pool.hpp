#pragma once
// The analysis request shapes that the serve tests send: crossover,
// sensitivity and scenario_sweep lines. No shipping traffic source uses
// them, so they live beside the tests rather than in
// sim/request_pools.hpp. tests/test_request_pools.cpp pins the bytes.

#include <string>
#include <vector>

namespace archline::sim {

/// Three lines per platform in this order: a crossover against the next
/// platform, a sensitivity at a per-platform intensity, and a 3x2
/// scenario_sweep (Heavy). Metrics rotate through efficiency /
/// performance / power. No RNG; replies are cacheable.
[[nodiscard]] std::vector<std::string> make_analysis_pool();

}  // namespace archline::sim
