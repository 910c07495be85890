#pragma once
// Sharded LRU response cache.
//
// The server memoizes deterministic replies keyed by the raw request
// line, so a repeated request skips JSON parsing and model evaluation
// entirely — the hot-path win that makes cached fits ~10^4x cheaper
// than recomputing them. Keys are sharded by FNV-1a hash so concurrent
// workers contend on different mutexes; within a shard, entries evict
// in strict least-recently-used order.
//
// Hot-path design:
//   * the key is hashed exactly once per operation — the same 64-bit
//     FNV-1a value selects the shard (low bits) and the bucket inside
//     the shard's index (identity-hashed multimap), so there is no
//     second hash pass over the key bytes;
//   * a hit copies the body exactly once, into a caller-supplied buffer
//     whose capacity is reused across requests;
//   * each entry carries a one-byte out-of-band tag (the server stores
//     the endpoint id there), so hits need no in-band prefix stripping.
//
// Full keys are stored and compared (the hash only picks the shard and
// bucket), so a hash collision can never serve the wrong response.
//
// Generation scoping (online fitting): an entry inserted with
// generation_scoped = true is valid only while the global parameter
// generation it was computed under is still current. A get() that finds
// a scoped entry from an older generation treats it as a miss (counted
// separately as `stale`) and erases the entry, so a published re-solve
// invalidates every parameter-dependent reply without a cache-wide
// sweep. Unscoped entries (e.g. "platforms", inline-machine "fit")
// ignore the generation entirely.

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace archline::serve {

class ShardedLruCache {
 public:
  /// `capacity` is total entries across all shards (each shard gets
  /// capacity / shards, at least 1). `shards` is rounded up to a power
  /// of two so shard selection is a mask. capacity == 0 disables
  /// caching (get always misses, put is a no-op).
  explicit ShardedLruCache(std::size_t capacity, std::size_t shards = 16);

  ShardedLruCache(const ShardedLruCache&) = delete;
  ShardedLruCache& operator=(const ShardedLruCache&) = delete;

  /// Single-copy hit: assigns the cached body into `value_out` (reusing
  /// its capacity), writes the entry's tag to `tag_out`, and refreshes
  /// recency. Returns false on a miss, leaving the outputs untouched.
  /// A generation-scoped entry whose generation != `current_generation`
  /// is a miss: the stale entry is erased and counted in Stats::stale.
  [[nodiscard]] bool get(std::string_view key,
                         std::uint64_t current_generation,
                         std::string& value_out, std::uint8_t& tag_out);

  /// Generation-free overload (pre-online callers and tests): behaves
  /// as if the current generation were 0, so unscoped entries always
  /// hit and scoped entries from generation 0 still work.
  [[nodiscard]] bool get(std::string_view key, std::string& value_out,
                         std::uint8_t& tag_out) {
    return get(key, 0, value_out, tag_out);
  }

  /// Value-only convenience overload (tag discarded).
  [[nodiscard]] std::optional<std::string> get(std::string_view key);

  /// Counts a miss without a lookup, for a key the caller knows is not
  /// cached; like get(), a no-op on a disabled cache.
  void count_miss();

  /// Inserts or refreshes key -> (value, tag), evicting the shard's LRU
  /// entry if that shard is full. `generation_scoped` marks the entry
  /// as valid only while `generation` stays current. The value is
  /// copied internally — and only after the disabled-cache early-out,
  /// so capacity 0 costs no allocation.
  void put(std::string_view key, std::string_view value,
           std::uint8_t tag = 0, std::uint64_t generation = 0,
           bool generation_scoped = false);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Generation-scoped entries found but discarded because a newer
    /// parameter generation had been published. Every stale lookup is
    /// ALSO counted as a miss — stale is the "why" breakdown.
    std::uint64_t stale = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
    std::size_t shards = 0;

    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };

  /// Aggregated counters across shards (consistent per shard, not
  /// globally atomic — fine for monitoring).
  [[nodiscard]] Stats stats() const;

  /// Drops all entries (counters are kept).
  void clear();

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// FNV-1a 64-bit — stable across runs and platforms, so shard
  /// placement is deterministic (tested).
  [[nodiscard]] static std::uint64_t hash_key(std::string_view key) noexcept;

  /// Which shard a key lands in; deterministic for a given shard count.
  [[nodiscard]] std::size_t shard_of(std::string_view key) const noexcept;

 private:
  struct Entry {
    std::string key;
    std::string value;
    std::uint64_t hash = 0;  ///< FNV-1a of key, computed once at insert
    std::uint64_t generation = 0;  ///< parameter generation at insert
    std::uint8_t tag = 0;
    bool generation_scoped = false;  ///< stale once generation moves on
  };

  /// The index key IS the precomputed FNV-1a hash; forwarding it as the
  /// bucket hash avoids a second pass over the key bytes. Collisions
  /// are resolved by full-key comparison over the equal range.
  struct IdentityHash {
    [[nodiscard]] std::size_t operator()(std::uint64_t h) const noexcept {
      return static_cast<std::size_t>(h);
    }
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Entry> lru;  ///< front = most recent
    std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator,
                            IdentityHash>
        index;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t stale = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  /// Locates `key` (hash `h`) in `shard`, or end(). Caller holds the
  /// shard mutex.
  [[nodiscard]] static std::unordered_multimap<
      std::uint64_t, std::list<Entry>::iterator, IdentityHash>::iterator
  find_in_shard(Shard& shard, std::uint64_t h, std::string_view key);

  std::size_t capacity_ = 0;
  std::size_t per_shard_capacity_ = 0;
  std::uint64_t shard_mask_ = 0;
  std::vector<Shard> shards_;
};

}  // namespace archline::serve
