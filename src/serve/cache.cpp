#include "serve/cache.hpp"

#include <algorithm>
#include <utility>

namespace archline::serve {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

ShardedLruCache::ShardedLruCache(std::size_t capacity, std::size_t shards)
    : capacity_(capacity),
      shards_(round_up_pow2(shards == 0 ? 1 : shards)) {
  shard_mask_ = shards_.size() - 1;
  per_shard_capacity_ =
      capacity_ == 0 ? 0
                     : std::max<std::size_t>(1, capacity_ / shards_.size());
}

std::uint64_t ShardedLruCache::hash_key(std::string_view key) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  for (const char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;  // FNV prime
  }
  return h;
}

std::size_t ShardedLruCache::shard_of(std::string_view key) const noexcept {
  // FNV-1a's low bits avalanche well (the high bits don't).
  return static_cast<std::size_t>(hash_key(key) & shard_mask_);
}

auto ShardedLruCache::find_in_shard(Shard& shard, std::uint64_t h,
                                    std::string_view key)
    -> std::unordered_multimap<std::uint64_t, std::list<Entry>::iterator,
                               IdentityHash>::iterator {
  auto [lo, hi] = shard.index.equal_range(h);
  for (auto it = lo; it != hi; ++it)
    if (it->second->key == key) return it;
  return shard.index.end();
}

bool ShardedLruCache::get(std::string_view key,
                          std::uint64_t current_generation,
                          std::string& value_out, std::uint8_t& tag_out) {
  if (per_shard_capacity_ == 0) return false;
  const std::uint64_t h = hash_key(key);
  Shard& shard = shards_[static_cast<std::size_t>(h & shard_mask_)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = find_in_shard(shard, h, key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return false;
  }
  if (it->second->generation_scoped &&
      it->second->generation != current_generation) {
    // The reply was computed under an older parameter generation: a
    // re-solve has published since. Erase eagerly — a stale body can
    // never become valid again, and keeping it would let an LRU-hot
    // stale entry pin out live ones.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.misses;
    ++shard.stale;
    return false;
  }
  ++shard.hits;
  // Refresh recency: splice the node to the front (no reallocation).
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  // The single copy of the hit path; assign() reuses value_out's
  // capacity, so a steady-state caller allocates nothing here.
  value_out.assign(it->second->value);
  tag_out = it->second->tag;
  return true;
}

std::optional<std::string> ShardedLruCache::get(std::string_view key) {
  std::string value;
  std::uint8_t tag = 0;
  if (!get(key, value, tag)) return std::nullopt;
  return value;
}

void ShardedLruCache::count_miss() {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = shards_.front();
  std::lock_guard<std::mutex> lock(shard.mutex);
  ++shard.misses;
}

void ShardedLruCache::put(std::string_view key, std::string_view value_view,
                          std::uint8_t tag, std::uint64_t generation,
                          bool generation_scoped) {
  if (per_shard_capacity_ == 0) return;  // before the copy: a disabled
                                         // cache must not tax the miss
                                         // path with a body-sized alloc
  std::string value(value_view);  // copied outside the shard lock
  const std::uint64_t h = hash_key(key);
  Shard& shard = shards_[static_cast<std::size_t>(h & shard_mask_)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = find_in_shard(shard, h, key);
  if (it != shard.index.end()) {
    it->second->value = std::move(value);
    it->second->tag = tag;
    it->second->generation = generation;
    it->second->generation_scoped = generation_scoped;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{std::string(key), std::move(value), h,
                             generation, tag, generation_scoped});
  shard.index.emplace(h, shard.lru.begin());
  ++shard.insertions;
  if (shard.lru.size() > per_shard_capacity_) {
    const auto victim = std::prev(shard.lru.end());
    auto [lo, hi] = shard.index.equal_range(victim->hash);
    for (auto vit = lo; vit != hi; ++vit)
      if (vit->second == victim) {
        shard.index.erase(vit);
        break;
      }
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

ShardedLruCache::Stats ShardedLruCache::stats() const {
  Stats s;
  s.capacity = capacity_;
  s.shards = shards_.size();
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.stale += shard.stale;
    s.insertions += shard.insertions;
    s.evictions += shard.evictions;
    s.entries += shard.lru.size();
  }
  return s;
}

void ShardedLruCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.index.clear();
    shard.lru.clear();
  }
}

}  // namespace archline::serve
