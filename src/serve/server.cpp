#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace archline::serve {

namespace {

/// Trims trailing CR / whitespace so "...}\r\n" framed requests hit the
/// same cache key as "...}\n".
std::string_view trim(std::string_view line) noexcept {
  while (!line.empty() &&
         (line.back() == '\r' || line.back() == ' ' || line.back() == '\t'))
    line.remove_suffix(1);
  while (!line.empty() &&
         (line.front() == ' ' || line.front() == '\t'))
    line.remove_prefix(1);
  return line;
}

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::max(2u, hw));
}

/// Heavy pool size: explicit request clamped to the thread count, or a
/// quarter of it (min 1) by default.
int resolve_heavy_workers(int requested, int threads) {
  if (requested > 0) return std::min(requested, threads);
  return std::max(1, threads / 4);
}

const ServerOptions& validated(const ServerOptions& options) {
  if (options.queue_capacity == 0)
    throw std::invalid_argument("ServerOptions: queue_capacity must be >= 1");
  return options;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(validated(options)),
      clock_(options.clock ? options.clock : &sim::real_clock()),
      cache_(std::make_shared<ShardedLruCache>(options.cache_capacity,
                                               options.cache_shards)),
      partitions_{cache_},
      metrics_(options.clock),
      queue_(options.queue_capacity),
      online_(options.online) {
  options_.threads = resolve_threads(options_.threads);
  options_.heavy_workers =
      resolve_heavy_workers(options_.heavy_workers, options_.threads);
}

Server::~Server() { shutdown(); }

void Server::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (running_.load(std::memory_order_acquire)) return;
  // A previous shutdown() closed the queue; reopen so Heavy misses are
  // admitted again and fresh workers block in pop() instead of exiting.
  queue_.reopen();
  workers_.reserve(static_cast<std::size_t>(options_.heavy_workers));
  for (int i = 0; i < options_.heavy_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  if (options_.refit_interval_ms > 0 && !resolver_) {
    resolver_ = std::make_unique<fit::online::BackgroundResolver>(
        online_, options_.refit_interval_ms);
    resolver_->start();
  }
  running_.store(true, std::memory_order_release);
}

bool Server::submit(std::string line, Done done) {
  if (queue_.closed()) return false;  // shut down: refuse Light work too
  std::string out;
  if (serve_inline(line, *cache_, out) != Inline::HeavyMiss) {
    done(std::move(out));
    return true;
  }
  return enqueue(std::move(line), std::move(done), cache_);
}

Server::Inline Server::serve_inline(std::string_view line,
                                    ShardedLruCache& cache,
                                    std::string& out) {
  const std::string_view key = trim(line);
  const auto started = stamp();
  // Donate the caller's capacity to the reply buffer and hand it back
  // afterwards: repeated calls with the same `out` settle into zero
  // allocations on the cache-hit path.
  Reply reply;
  reply.body.swap(out);
  reply.body.clear();
  // Hot path: a byte-identical request skips parsing entirely. The
  // endpoint id rides out-of-band as the entry's tag and the body is
  // copied exactly once, into reply.body's reused capacity.
  std::uint8_t tag = 0;
  Inline how = Inline::Hit;
  if (cache.get(key, online_.generation(), reply.body, tag)) {
    finish(Registry::instance().by_id(tag), true, started);
  } else if (classify_line(key) == RequestClass::Heavy) {
    how = Inline::HeavyMiss;
  } else {
    how = Inline::Evaluated;
    evaluate(key, cache, started, reply);
  }
  out.swap(reply.body);
  return how;
}

bool Server::enqueue(std::string line, Done done,
                     std::shared_ptr<ShardedLruCache> cache) {
  const int deadline_ms = options_.request_deadline_ms;
  const auto deadline =
      deadline_ms > 0 ? clock_->now() + std::chrono::milliseconds(deadline_ms)
                      : Clock::time_point::max();
  // `admitted` anchors queue-inclusive latency.
  Job job{std::move(line), std::move(done), stamp(), deadline,
          std::move(cache)};
  const auto publish = [this](std::size_t depth) {
    metrics_.on_queue_depth(depth);
  };
  if (!queue_.try_push(std::move(job), publish)) {
    metrics_.on_rejected();
    return false;
  }
  return true;
}

std::string Server::handle_now(std::string_view line) {
  std::string out;
  handle_into(line, out);
  return out;
}

void Server::handle_into(std::string_view line, std::string& out) {
  if (serve_inline(line, *cache_, out) != Inline::HeavyMiss) return;
  Reply reply;
  reply.body.swap(out);
  evaluate(trim(line), *cache_, stamp(), reply);
  out.swap(reply.body);
}

void Server::add_cache_partition(
    std::shared_ptr<const ShardedLruCache> partition) {
  if (!partition) return;
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  partitions_.push_back(std::move(partition));
}

void Server::remove_cache_partition(const ShardedLruCache* partition) {
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  partitions_.erase(
      std::remove_if(partitions_.begin(), partitions_.end(),
                     [partition](const auto& p) { return p.get() == partition; }),
      partitions_.end());
}

ShardedLruCache::Stats Server::cache_stats() const {
  ShardedLruCache::Stats total;
  std::lock_guard<std::mutex> lock(partitions_mutex_);
  for (const auto& p : partitions_) {
    const ShardedLruCache::Stats s = p->stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.stale += s.stale;
    total.insertions += s.insertions;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.capacity += s.capacity;
    total.shards += s.shards;
  }
  return total;
}

Server::Clock::time_point Server::stamp() noexcept {
  return metrics_.sample_latency_now() ? clock_->now() : Clock::time_point{};
}

void Server::finish(const Endpoint* endpoint, bool ok,
                    Clock::time_point started) {
  if (started == Clock::time_point{}) {
    metrics_.on_completed(endpoint, ok);  // counted, latency unsampled
    return;
  }
  metrics_.on_completed(
      endpoint, ok,
      std::chrono::duration<double>(clock_->now() - started).count());
}

void Server::evaluate(std::string_view key, ShardedLruCache& cache,
                      Clock::time_point started, Reply& reply) {
  // The parameter generation is captured BEFORE evaluation and reused
  // for the put: if a re-solve publishes while this request evaluates,
  // the entry is inserted under the old generation and is stale on
  // arrival — the next lookup recomputes instead of serving a reply
  // that mixes generations.
  const std::uint64_t generation = online_.generation();
  handle_line(key, options_.limits, reply, &online_);
  // server_evaluated endpoints ("stats") render against live server
  // state instead of the request alone; the handler left the body empty.
  if (reply.ok && reply.endpoint && reply.endpoint->server_evaluated)
    reply.body = stats_body();
  if (reply.ok && reply.cacheable)
    cache.put(key, reply.body, reply.endpoint->id, generation,
              reply.endpoint->model_scoped);
  finish(reply.endpoint, reply.ok, started);
}

void Server::run_job(Job& job, Reply& scratch) {
  // A job that out-waited its deadline in the queue is answered with
  // the canned error instead of burning a worker on a reply the client
  // has likely given up on.
  if (job.deadline != Clock::time_point::max() &&
      clock_->now() > job.deadline) {
    metrics_.on_deadline_exceeded();
    job.done(std::string(deadline_exceeded_body()));
    return;
  }
  evaluate(trim(job.line), *job.cache, job.admitted, scratch);
  // Ownership of the body transfers to the transport; the scratch
  // buffer re-grows on the next request (one allocation per response is
  // the floor while `done` takes ownership).
  job.done(std::move(scratch.body));
}

void Server::worker_loop() {
  Reply scratch;
  const auto publish = [this](std::size_t depth) {
    metrics_.on_queue_depth(depth);
  };
  while (std::optional<Job> job = queue_.pop(publish)) run_job(*job, scratch);
}

void Server::shutdown() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  // Stop the resolver first so no re-solve publishes while workers
  // drain — in-flight requests then see one stable generation.
  if (resolver_) {
    resolver_->stop();
    resolver_.reset();
  }
  queue_.close();
  for (std::thread& t : workers_)
    if (t.joinable()) t.join();
  workers_.clear();
  // If shutdown raced start (or start was never called), drain whatever
  // was admitted on this thread so every enqueue()'s done still fires.
  Reply scratch;
  while (std::optional<Job> job = queue_.pop()) run_job(*job, scratch);
  metrics_.on_queue_depth(0);
  running_.store(false, std::memory_order_release);
}

// ---- OrderedWriter --------------------------------------------------------

void OrderedWriter::flush_ready(std::unique_lock<std::mutex>& lock) {
  while (!out_of_order_.empty() &&
         out_of_order_.begin()->first == next_to_write_) {
    flush_batch_.clear();
    auto it = out_of_order_.begin();
    while (it != out_of_order_.end() &&
           it->first == next_to_write_ + flush_batch_.size()) {
      flush_batch_.push_back(std::move(it->second));
      it = out_of_order_.erase(it);
    }
    lock.unlock();
    for (const std::string& body : flush_batch_) sink_(body);
    lock.lock();
    next_to_write_ += flush_batch_.size();
  }
  flushing_ = false;
  if (next_to_write_ == sequence_.load(std::memory_order_acquire))
    all_done_.notify_all();
}

void OrderedWriter::complete(std::uint64_t seq, std::string&& body) {
  std::unique_lock<std::mutex> lock(mutex_);
  // Fast path: this response is the next to write, nothing is buffered,
  // and nobody else owns the sink — write it directly, without ever
  // parking it in the map, and without holding the mutex across sink_.
  if (!flushing_ && seq == next_to_write_ && out_of_order_.empty()) {
    flushing_ = true;
    lock.unlock();
    sink_(body);
    lock.lock();
    ++next_to_write_;
    flush_ready(lock);
    return;
  }
  out_of_order_.emplace(seq, std::move(body));
  if (flushing_ || out_of_order_.begin()->first != next_to_write_) return;
  flushing_ = true;
  flush_ready(lock);
}

std::size_t OrderedWriter::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      sequence_.load(std::memory_order_acquire) - next_to_write_);
}

void OrderedWriter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [&] {
    return next_to_write_ == sequence_.load(std::memory_order_acquire);
  });
}

// ---- Stream transport -----------------------------------------------------

void run_stream(Server& server, std::istream& in, std::ostream& out) {
  OrderedWriter writer(
      [&out](const std::string& body) { out << body << '\n'; });
  std::string line;
  while (std::getline(in, line)) {
    if (trim(line).empty()) continue;
    const std::uint64_t seq = writer.next_sequence();
    const bool admitted = server.submit(
        line, [&writer, seq](std::string&& body) {
          writer.complete(seq, std::move(body));
        });
    if (!admitted) writer.complete(seq, std::string(overloaded_body()));
  }
  writer.drain();
  out.flush();
}

}  // namespace archline::serve
