#include "serve/metrics.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "serve/json.hpp"

namespace archline::serve {

namespace {

/// Bucket index for a latency: floor(log2(nanoseconds)), clamped.
/// Integer bit_width instead of floor(log2()) — this runs once per
/// completed request, and the histogram's own granularity makes the two
/// indistinguishable.
int bucket_for(double seconds) noexcept {
  const double ns = seconds * 1e9;
  if (!(ns >= 1.0)) return 0;
  // >= 2^63 ns (~292 years) lands in the top bucket; also keeps the
  // double->uint64 cast below in range.
  if (ns >= 9.223372036854776e18) return LatencyHistogram::kBuckets - 1;
  return std::bit_width(static_cast<std::uint64_t>(ns)) - 1;
}

/// Metrics slot for a completion: the endpoint's dense id, or the
/// invalid slot when the request never reached a handler.
std::size_t slot_for(const Endpoint* endpoint) noexcept {
  return endpoint ? endpoint->id : Metrics::kInvalidSlot;
}

/// Latency-histogram class for a completion: errors before dispatch are
/// cheap and land with the Light class.
std::size_t class_for(const Endpoint* endpoint) noexcept {
  return endpoint ? static_cast<std::size_t>(endpoint->klass)
                  : static_cast<std::size_t>(RequestClass::Light);
}

}  // namespace

void LatencyHistogram::record(double seconds) noexcept {
  buckets_[static_cast<std::size_t>(bucket_for(seconds))].fetch_add(
      1, std::memory_order_relaxed);
}

LatencyHistogram::Snapshot LatencyHistogram::snapshot() const noexcept {
  Snapshot s;
  accumulate(s);
  return s;
}

void LatencyHistogram::accumulate(Snapshot& out) const noexcept {
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t c =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    out.counts[static_cast<std::size_t>(i)] += c;
    out.total += c;
  }
}

double LatencyHistogram::Snapshot::quantile(double q) const noexcept {
  if (total == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample (1-based), then walk buckets.
  const double rank = q * static_cast<double>(total);
  double seen = 0.0;
  int last_populated = -1;
  for (int i = 0; i < kBuckets; ++i) {
    const double c = static_cast<double>(counts[static_cast<std::size_t>(i)]);
    if (c == 0.0) continue;
    last_populated = i;
    if (seen + c >= rank) {
      // Log-linear interpolation inside [2^i, 2^(i+1)) ns.
      const double frac = c > 0.0 ? (rank - seen) / c : 0.0;
      const double ns = std::exp2(static_cast<double>(i) + frac);
      return ns * 1e-9;
    }
    seen += c;
  }
  // Rank landed beyond the last populated bucket (floating-point
  // accumulation, or total > sum of counts in a hand-built snapshot):
  // clamp to that bucket's upper edge rather than inventing a value one
  // bucket past the histogram's own range.
  return std::exp2(static_cast<double>(last_populated) + 1.0) * 1e-9;
}

Metrics::Metrics(const sim::ClockSource* clock)
    : clock_(clock ? clock : &sim::real_clock()), start_(clock_->now()) {}

Metrics::CompletionShard& Metrics::completion_shard() noexcept {
  // Threads claim shard indices round-robin on first use; with 8 shards
  // and worker pools of comparable size, each worker effectively owns a
  // shard. The index is process-global so a thread touching several
  // Metrics instances uses the same stripe in each.
  static std::atomic<unsigned> next_thread{0};
  static thread_local const unsigned index =
      next_thread.fetch_add(1, std::memory_order_relaxed);
  return completion_shards_[index % kCompletionShards];
}

void Metrics::on_completed(const Endpoint* endpoint, bool ok,
                           double latency_s) noexcept {
  CompletionShard& shard = completion_shard();
  shard.by_endpoint[slot_for(endpoint)].fetch_add(1,
                                                  std::memory_order_relaxed);
  if (!ok) shard.errors.fetch_add(1, std::memory_order_relaxed);
  shard.latency[class_for(endpoint)].record(latency_s);
}

void Metrics::on_completed(const Endpoint* endpoint, bool ok) noexcept {
  CompletionShard& shard = completion_shard();
  shard.by_endpoint[slot_for(endpoint)].fetch_add(1,
                                                  std::memory_order_relaxed);
  if (!ok) shard.errors.fetch_add(1, std::memory_order_relaxed);
}

bool Metrics::sample_latency_now() noexcept {
  // The tick lives in the thread's home shard — the same cache line its
  // completion counters already dirty — so this costs no extra
  // coherence traffic. Relaxed is fine: the tick only spaces samples,
  // it orders nothing.
  const std::uint64_t t = completion_shard().sample_tick.fetch_add(
      1, std::memory_order_relaxed);
  return t < kLatencyWarmupSamples || (t % kLatencySampleEvery) == 0;
}

void Metrics::on_rejected() noexcept {
  rejected_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::on_deadline_exceeded() noexcept {
  deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::set_transport_shards(std::size_t n) noexcept {
  transport_shards_.store(n < kMaxTransportShards ? n : kMaxTransportShards,
                          std::memory_order_relaxed);
}

void Metrics::on_connection_opened(std::size_t shard) noexcept {
  TransportShard& s = transport_shard(shard);
  s.accepted.fetch_add(1, std::memory_order_relaxed);
  s.open.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::on_connection_closed(std::size_t shard) noexcept {
  transport_shard(shard).open.fetch_sub(1, std::memory_order_relaxed);
}

void Metrics::on_connection_rejected(std::size_t shard) noexcept {
  transport_shard(shard).rejected.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::on_connection_idle_closed(std::size_t shard) noexcept {
  transport_shard(shard).idle_closed.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::on_shard_request(std::size_t shard) noexcept {
  transport_shard(shard).requests.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::on_shard_cached(std::size_t shard) noexcept {
  transport_shard(shard).cached_inline.fetch_add(1, std::memory_order_relaxed);
}

void Metrics::on_queue_depth(std::size_t depth) noexcept {
  queue_depth_.store(depth, std::memory_order_relaxed);
  std::uint64_t peak = queue_peak_.load(std::memory_order_relaxed);
  while (depth > peak &&
         !queue_peak_.compare_exchange_weak(peak, depth,
                                            std::memory_order_relaxed)) {
  }
}

Metrics::Snapshot Metrics::snapshot() const noexcept {
  Snapshot s;
  for (const CompletionShard& shard : completion_shards_) {
    for (std::size_t i = 0; i < s.by_endpoint.size(); ++i) {
      const std::uint64_t c =
          shard.by_endpoint[i].load(std::memory_order_relaxed);
      s.by_endpoint[i] += c;
      s.completed += c;
    }
    s.errors += shard.errors.load(std::memory_order_relaxed);
    for (const LatencyHistogram& h : shard.latency) h.accumulate(s.latency);
    shard.latency[static_cast<std::size_t>(RequestClass::Heavy)].accumulate(
        s.heavy_latency);
  }
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.queue_depth =
      static_cast<std::size_t>(queue_depth_.load(std::memory_order_relaxed));
  s.queue_peak =
      static_cast<std::size_t>(queue_peak_.load(std::memory_order_relaxed));
  s.transport_shards = transport_shards_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < kMaxTransportShards; ++i) {
    const TransportShard& t = transport_shards_counters_[i];
    Snapshot::TransportShardSnapshot& row = s.shards[i];
    row.open = t.open.load(std::memory_order_relaxed);
    row.accepted = t.accepted.load(std::memory_order_relaxed);
    row.rejected = t.rejected.load(std::memory_order_relaxed);
    row.idle_closed = t.idle_closed.load(std::memory_order_relaxed);
    row.requests = t.requests.load(std::memory_order_relaxed);
    row.cached_inline = t.cached_inline.load(std::memory_order_relaxed);
    s.connections_open += row.open;
    s.connections_accepted += row.accepted;
    s.connections_rejected += row.rejected;
    s.connections_idle_closed += row.idle_closed;
  }
  s.uptime_s = std::chrono::duration<double>(clock_->now() - start_).count();
  s.qps = s.uptime_s > 0.0 ? static_cast<double>(s.completed) / s.uptime_s
                           : 0.0;
  return s;
}

namespace {

Json latency_json(const LatencyHistogram::Snapshot& latency) {
  Json out = Json::object();
  out.set("count", latency.total);
  out.set("p50_s", latency.quantile(0.50));
  out.set("p95_s", latency.quantile(0.95));
  out.set("p99_s", latency.quantile(0.99));
  out.set("p999_s", latency.quantile(0.999));
  return out;
}

}  // namespace

std::string Metrics::to_json(
    const ShardedLruCache::Stats& cache,
    const fit::online::OnlineStoreStats* online) const {
  const Snapshot s = snapshot();
  const Registry& registry = Registry::instance();
  Json out = Json::object();
  out.set("ok", true);
  out.set("type", "stats");
  out.set("uptime_s", s.uptime_s);
  out.set("completed", s.completed);
  out.set("errors", s.errors);
  out.set("rejected_overload", s.rejected);
  out.set("deadline_exceeded", s.deadline_exceeded);
  out.set("qps", s.qps);
  Json by_type = Json::object();
  for (const Endpoint& e : registry)
    if (s.by_endpoint[e.id] > 0)
      by_type.set(e.name, s.by_endpoint[e.id]);
  if (s.by_endpoint[kInvalidSlot] > 0)
    by_type.set("invalid", s.by_endpoint[kInvalidSlot]);
  out.set("by_type", std::move(by_type));
  out.set("latency", latency_json(s.latency));
  // Only Heavy misses queue; the section keeps its historical name.
  Json heavy = Json::object();
  heavy.set("depth", s.queue_depth);
  heavy.set("peak", s.queue_peak);
  heavy.set("rejected", s.rejected);
  heavy.set("deadline_exceeded", s.deadline_exceeded);
  heavy.set("latency", latency_json(s.heavy_latency));
  Json lanes = Json::object();
  lanes.set("heavy", std::move(heavy));
  out.set("lanes", std::move(lanes));
  Json cache_json = Json::object();
  cache_json.set("hits", cache.hits);
  cache_json.set("misses", cache.misses);
  cache_json.set("hit_rate", cache.hit_rate());
  cache_json.set("entries", cache.entries);
  cache_json.set("capacity", cache.capacity);
  cache_json.set("shards", cache.shards);
  cache_json.set("stale", cache.stale);
  cache_json.set("evictions", cache.evictions);
  out.set("cache", std::move(cache_json));
  if (online) {
    Json online_json = Json::object();
    online_json.set("observations", online->observations);
    online_json.set("resolves", online->resolves);
    online_json.set("generation", online->generation);
    online_json.set("platforms_fitted", online->platforms_fitted);
    // -1 until the first re-solve completes.
    online_json.set("last_resolve_s", online->last_resolve_s);
    out.set("online", std::move(online_json));
  }
  Json queue = Json::object();
  queue.set("depth", s.queue_depth);
  queue.set("peak", s.queue_peak);
  out.set("queue", std::move(queue));
  Json conns = Json::object();
  conns.set("open", s.connections_open);
  conns.set("accepted", s.connections_accepted);
  conns.set("rejected", s.connections_rejected);
  conns.set("idle_closed", s.connections_idle_closed);
  if (s.transport_shards > 0) {
    // Per-event-loop-shard breakdown; only rendered when a sharded
    // transport declared itself, so non-TCP deployments keep the old
    // shape.
    Json shards = Json::array();
    shards.reserve(s.transport_shards);
    for (std::size_t i = 0; i < s.transport_shards; ++i) {
      const Snapshot::TransportShardSnapshot& row = s.shards[i];
      Json shard = Json::object();
      shard.set("open", row.open);
      shard.set("accepted", row.accepted);
      shard.set("rejected", row.rejected);
      shard.set("idle_closed", row.idle_closed);
      shard.set("requests", row.requests);
      shard.set("cached_inline", row.cached_inline);
      shards.push_back(std::move(shard));
    }
    conns.set("shards", std::move(shards));
  }
  out.set("connections", std::move(conns));
  return out.dump();
}

std::string Metrics::summary(
    const ShardedLruCache::Stats& cache,
    const fit::online::OnlineStoreStats* online) const {
  const Snapshot s = snapshot();
  const Registry& registry = Registry::instance();
  char buf[1024];
  std::string out = "---- archline_serve metrics ----\n";
  std::snprintf(buf, sizeof buf,
                "uptime       %.3f s\n"
                "completed    %llu (%.0f req/s)\n"
                "errors       %llu\n"
                "rejected     %llu (overload)\n"
                "deadlined    %llu (expired in queue)\n",
                s.uptime_s, static_cast<unsigned long long>(s.completed),
                s.qps, static_cast<unsigned long long>(s.errors),
                static_cast<unsigned long long>(s.rejected),
                static_cast<unsigned long long>(s.deadline_exceeded));
  out += buf;
  for (const Endpoint& e : registry) {
    if (s.by_endpoint[e.id] == 0) continue;
    std::snprintf(buf, sizeof buf, "  %-14.*s %llu\n",
                  static_cast<int>(e.name.size()), e.name.data(),
                  static_cast<unsigned long long>(s.by_endpoint[e.id]));
    out += buf;
  }
  if (s.by_endpoint[kInvalidSlot] > 0) {
    std::snprintf(buf, sizeof buf, "  %-14s %llu\n", "invalid",
                  static_cast<unsigned long long>(s.by_endpoint[kInvalidSlot]));
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "latency      p50 %.1f us   p95 %.1f us   p99 %.1f us\n",
                s.latency.quantile(0.50) * 1e6,
                s.latency.quantile(0.95) * 1e6,
                s.latency.quantile(0.99) * 1e6);
  out += buf;
  std::snprintf(buf, sizeof buf, "heavy        p99 %.1f us\n",
                s.heavy_latency.quantile(0.99) * 1e6);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "cache        %llu hits / %llu misses (%.1f%% hit rate), "
                "%zu/%zu entries, %llu evictions, %llu stale\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                cache.hit_rate() * 100.0, cache.entries, cache.capacity,
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(cache.stale));
  out += buf;
  if (online) {
    std::snprintf(buf, sizeof buf,
                  "online       %llu observations, %llu re-solves "
                  "(generation %llu, %zu platforms fitted, last %.3f ms)\n",
                  static_cast<unsigned long long>(online->observations),
                  static_cast<unsigned long long>(online->resolves),
                  static_cast<unsigned long long>(online->generation),
                  online->platforms_fitted, online->last_resolve_s * 1e3);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "queue        depth %zu, peak %zu\n",
                s.queue_depth, s.queue_peak);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "connections  %llu open, %llu accepted, %llu rejected, "
                "%llu idle-closed\n",
                static_cast<unsigned long long>(s.connections_open),
                static_cast<unsigned long long>(s.connections_accepted),
                static_cast<unsigned long long>(s.connections_rejected),
                static_cast<unsigned long long>(s.connections_idle_closed));
  out += buf;
  if (s.transport_shards > 1) {
    for (std::size_t i = 0; i < s.transport_shards; ++i) {
      const Snapshot::TransportShardSnapshot& row = s.shards[i];
      std::snprintf(
          buf, sizeof buf,
          "  shard %-2zu    %llu open, %llu accepted, %llu requests, "
          "%llu cached-inline\n",
          i, static_cast<unsigned long long>(row.open),
          static_cast<unsigned long long>(row.accepted),
          static_cast<unsigned long long>(row.requests),
          static_cast<unsigned long long>(row.cached_inline));
      out += buf;
    }
  }
  out += "--------------------------------";
  return out;
}

}  // namespace archline::serve
