#pragma once
// Per-platform online estimation state and its epoch-tagged publication.
//
// OnlineStore is the server's first mutable-state subsystem, so its
// concurrency contract is spelled out here:
//
//   * Ingest (`observe`) takes only the one platform's ingest mutex,
//     updates the learner's sums and the bounded re-solve window, and
//     returns — O(1) per tuple, never blocked by a running re-solve.
//   * Publication is an atomic snapshot swap: a re-solve builds a fresh
//     immutable ParamSnapshot off to the side (the capped fit and the
//     learner's NNLS run with NO ingest lock held), then swaps it in
//     under a pointer mutex held for the duration of a shared_ptr
//     assignment only. Readers (`params`, `predict` overlay) copy the
//     shared_ptr under that same pointer mutex — nanoseconds — and then
//     read the immutable snapshot lock-free. Readers never contend with the ingest path.
//   * Every publication bumps the platform's epoch and the store's
//     global generation. The generation rides in response-cache entries
//     (serve/cache.hpp) so cached parameter-dependent replies miss
//     after a publish.
//
// The platform set is fixed at construction (the Table I platform_db
// names), so the name -> state map itself is immutable and needs no
// lock.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/machine_params.hpp"
#include "fit/online/rls.hpp"

namespace archline::fit::online {

/// Immutable published estimate for one platform. Everything a reader
/// needs is captured at publish time; fields never change after the
/// swap.
struct ParamSnapshot {
  core::MachineParams machine;  ///< blended current-best (SP @ DRAM)
  RlsEstimate rls;              ///< linear estimates + uncertainty
  std::uint64_t epoch = 0;      ///< per-platform publish ordinal (1-based)
  std::uint64_t observations = 0;  ///< tuples ingested at publish time
  /// True when the nonlinear re-solve contributed (tau_*, delta_pi from
  /// the solver); false would mean an RLS-only publish, which the store
  /// never does today.
  bool resolved = false;
  double rss = 0.0;
  double r_squared = 0.0;
  bool converged = false;
  std::size_t window_observations = 0;  ///< tuples the solver saw
  /// The learned machine pre-applied at every point of the platform's
  /// DVFS ladder (platform_db order; empty when the platform has no
  /// ladder). Built once at publish time so policy_advise reads its
  /// per-point machines lock-free from the snapshot instead of
  /// re-deriving them per request.
  std::vector<core::MachineParams> op_machines;
};

struct OnlineFitOptions {
  /// RLS forgetting factor lambda in (0, 1]; effective memory is
  /// ~1/(1-lambda) observations.
  double forgetting = 0.998;
  /// Bounded window of recent tuples kept per platform for the
  /// nonlinear re-solve (ring buffer; oldest overwritten).
  std::size_t window_capacity = 4096;
  /// A re-solve needs at least this many windowed tuples; below it,
  /// resolve() refuses (returns null) instead of fitting noise.
  std::size_t min_resolve_observations = 6;
  /// LM budget of the background re-solve's polish — smaller than the
  /// offline default because it runs repeatedly.
  int lm_iterations = 60;
};

/// Monitoring counters for the "stats" endpoint.
struct OnlineStoreStats {
  std::uint64_t observations = 0;  ///< tuples ingested, all platforms
  std::uint64_t resolves = 0;      ///< completed re-solves
  std::uint64_t generation = 0;    ///< global publish counter
  std::uint64_t platforms_fitted = 0;  ///< platforms with epoch >= 1
  /// Wall-clock duration of the most recent re-solve; negative until
  /// one has run.
  double last_resolve_s = -1.0;
};

class OnlineStore {
  struct PlatformState;

 public:
  /// Opaque pre-resolved platform handle: the name lookup done once.
  /// The ingest hot path resolves the request's platform name a single
  /// time (find_platform) and feeds the handle to observe(), instead of
  /// paying one scan to validate the name and a second inside the
  /// string-keyed observe(). Handles stay valid for the store's
  /// lifetime (the platform set is fixed at construction and state
  /// addresses are stable). A default-constructed / not-found handle is
  /// falsy; observing through it is a no-op.
  class PlatformRef {
   public:
    PlatformRef() = default;
    [[nodiscard]] explicit operator bool() const noexcept {
      return state_ != nullptr;
    }

   private:
    friend class OnlineStore;
    explicit PlatformRef(PlatformState* state) noexcept : state_(state) {}
    PlatformState* state_ = nullptr;
  };

  explicit OnlineStore(OnlineFitOptions options = {});

  OnlineStore(const OnlineStore&) = delete;
  OnlineStore& operator=(const OnlineStore&) = delete;

  /// Resolves a platform name to its handle (falsy for unknown names).
  [[nodiscard]] PlatformRef find_platform(
      std::string_view platform) const noexcept;

  /// Ingests a batch: O(1) per tuple under the platform's ingest mutex.
  /// Unknown platforms are ignored (the serve layer validates first and
  /// raises unknown_platform). Returns the platform's new tuple total.
  std::uint64_t observe(std::string_view platform,
                        std::span<const Sample> batch);

  /// Handle form of observe() — no name scan. Falsy handles return 0.
  std::uint64_t observe(PlatformRef platform, std::span<const Sample> batch);

  /// The platform's current published snapshot; null before the first
  /// publish or for unknown platforms. Lock-free to read after the
  /// pointer copy.
  [[nodiscard]] std::shared_ptr<const ParamSnapshot> published(
      std::string_view platform) const;

  /// Synchronous re-solve + publish for one platform: copies the window
  /// under the ingest lock, runs the full §V pipeline unlocked, blends
  /// with the learner's estimates, swaps the snapshot in, bumps the
  /// epoch and global generation. Returns the new snapshot, or null
  /// when the window holds fewer than min_resolve_observations tuples.
  /// Throws only what fit::fit_observations throws (degenerate data).
  std::shared_ptr<const ParamSnapshot> resolve(std::string_view platform);

  /// Tuples ingested for one platform so far (0 for unknown names).
  [[nodiscard]] std::uint64_t observations(std::string_view platform) const;

  /// Global publish counter: bumped by every successful resolve() on
  /// any platform. The response cache stores this with
  /// parameter-dependent entries and treats a mismatch as a miss.
  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

  /// Platforms with tuples ingested since their last publish — the
  /// background resolver's work list.
  [[nodiscard]] std::vector<std::string_view> dirty_platforms() const;

  [[nodiscard]] OnlineStoreStats stats() const;

  [[nodiscard]] const OnlineFitOptions& options() const noexcept {
    return options_;
  }

 private:
  struct PlatformState {
    std::string name;

    mutable std::mutex ingest_mutex;  ///< guards everything below
    RlsFilter rls;
    std::vector<Sample> window;  ///< ring buffer, capacity-bounded
    std::size_t window_next = 0;  ///< ring write cursor
    std::uint64_t total = 0;      ///< tuples ingested lifetime
    std::uint64_t published_total = 0;  ///< `total` at last publish

    mutable std::mutex snapshot_mutex;  ///< guards the pointer only
    std::shared_ptr<const ParamSnapshot> snapshot;
    std::uint64_t epoch = 0;

    explicit PlatformState(std::string n, const OnlineFitOptions& o)
        : name(std::move(n)), rls(o.forgetting) {}
  };

  [[nodiscard]] PlatformState* find(std::string_view platform) const noexcept;

  OnlineFitOptions options_;
  /// Fixed at construction; unique_ptr keeps PlatformState addresses
  /// stable (it holds mutexes).
  std::vector<std::unique_ptr<PlatformState>> platforms_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint64_t> observations_total_{0};
  std::atomic<std::uint64_t> resolves_{0};
  std::atomic<std::int64_t> last_resolve_ns_{-1};
};

}  // namespace archline::fit::online
