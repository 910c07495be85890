#pragma once
// The background re-solver: a single thread that periodically sweeps
// the OnlineStore for platforms with un-published observations and runs
// the full nonlinear re-solve (§V capped fit: an exact NNLS branch and
// a Levenberg-Marquardt profile over delta_pi) for each, publishing a
// new epoch. This keeps that work off the serve hot path entirely:
// `observe` never waits on a solve, and a forced synchronous "refit"
// request is Heavy: it runs on the server's bounded worker pool, never
// on a thread that frames Light requests.
//
// Lifecycle mirrors serve::Server: construct, start(), stop() (idempotent,
// also run by the destructor). poke() wakes the thread immediately —
// tests use it instead of waiting out the interval.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "fit/online/snapshot.hpp"

namespace archline::fit::online {

class BackgroundResolver {
 public:
  /// `interval_ms` is the sweep cadence; values < 1 are clamped to 1.
  /// The resolver does not start until start() is called.
  BackgroundResolver(OnlineStore& store, int interval_ms);

  ~BackgroundResolver();

  BackgroundResolver(const BackgroundResolver&) = delete;
  BackgroundResolver& operator=(const BackgroundResolver&) = delete;

  /// Spawns the sweep thread. Idempotent while running.
  void start();

  /// Signals the thread and joins it. Safe to call twice.
  void stop();

  /// Wakes the thread for an immediate sweep (tests, SIGUSR-style
  /// triggers). No-op when not running.
  void poke();

  /// Completed sweep rounds — tests poll this to know a full pass ran.
  [[nodiscard]] std::uint64_t sweeps() const noexcept {
    return sweeps_.load(std::memory_order_acquire);
  }

  /// Re-solves that threw (degenerate window data); the sweep skips the
  /// platform and retries next round once new tuples arrive.
  [[nodiscard]] std::uint64_t failed_resolves() const noexcept {
    return failed_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  OnlineStore& store_;
  int interval_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool poked_ = false;
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::thread thread_;
};

}  // namespace archline::fit::online
