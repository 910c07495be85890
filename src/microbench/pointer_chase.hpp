#pragma once
// The random-access microbenchmark (paper §IV-f): pointer chasing, "as
// might appear in a sparse matrix or other graph computation".
//
// Two halves:
//  * a KernelDesc generator for the simulator (accesses at eps_rand /
//    tau_rand cost);
//  * a real permutation-cycle builder shared with the native benchmark —
//    Sattolo's algorithm yields a single cycle covering all slots, so a
//    chase of N steps is N dependent cache-defeating loads.

#include <cstddef>
#include <vector>

#include "sim/kernel.hpp"
#include "stats/rng.hpp"

namespace archline::microbench {

/// A random-access kernel of `accesses` dependent loads over a working set
/// of `working_set_bytes` (both positive).
[[nodiscard]] sim::KernelDesc random_access_kernel(double accesses,
                                                   double working_set_bytes);

/// Builds a single-cycle permutation of {0..n-1} with Sattolo's algorithm:
/// following next[i] from any start visits every index exactly once before
/// returning. n must be >= 2.
[[nodiscard]] std::vector<std::size_t> sattolo_cycle(std::size_t n,
                                                     stats::Rng& rng);

/// Verifies that `next` is a single n-cycle (every chase from 0 visits all
/// slots). No shipped code calls it: it is the oracle that
/// SattoloCycle.IsSingleCycle (tests/test_pointer_chase.cpp) checks
/// sattolo_cycle with.
[[nodiscard]] bool is_single_cycle(const std::vector<std::size_t>& next);

}  // namespace archline::microbench
