#include "serve/shard_core.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

namespace archline::serve {

namespace {

/// Frame separator shared by every iovec gather() builds.
constexpr char kNewline = '\n';

/// Frames a reply rendered into the shard's scratch buffer: copied
/// into `out` when FIFO allows (its capacity is reused across requests,
/// so the steady state allocates nothing), else into pending.
void frame_copy(ShardCore::Conn& c, const std::string& body) {
  ++c.written;
  if (c.pending_next == c.pending.size()) {
    c.pending.clear();
    c.pending_next = 0;
    c.out.append(body.data(), body.size());
    c.out.push_back(kNewline);
  } else {
    c.pending.push_back(body);
  }
}

/// The slices sum to the cap: cap / shards, the remainder first.
std::size_t connection_slice(std::size_t cap, std::size_t shard,
                             int shards) {
  const std::size_t n = static_cast<std::size_t>(shards);
  return cap / n + (shard < cap % n ? 1 : 0);
}

/// Sequences `body` behind every earlier reply of `c`; each reply the
/// writer releases moves into pending, zero copies.
void complete_in_order(ShardCore::Conn& c, std::uint64_t seq,
                       std::string&& body) {
  c.writer.complete(seq, std::move(body), [&c](std::string&& released) {
    ++c.written;
    c.pending.push_back(std::move(released));
  });
}

}  // namespace

/// Workers push finished Heavy replies here; the driver takes them on
/// the shard's thread. Straggler jobs (the queue drain in
/// Server::shutdown) may push after the shard is gone: the channel
/// lives as long as they do, and the wake-up was cleared first.
struct ShardCore::Channel {
  std::mutex mutex;
  std::vector<Completion> ready;
  Wake wake = nullptr;
  void* wake_arg = nullptr;

  void push(Completion&& done) {
    std::lock_guard<std::mutex> lock(mutex);
    ready.push_back(std::move(done));
    // Under the lock, so set_wake() cannot retire the target mid-wake.
    if (wake) wake(wake_arg);
  }
};

std::vector<std::shared_ptr<ShardedLruCache>> make_shard_partitions(
    Server& server, int shards) {
  const std::size_t n = static_cast<std::size_t>(shards);
  const std::size_t capacity = server.options().cache_capacity;
  std::vector<std::shared_ptr<ShardedLruCache>> partitions;
  partitions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (capacity == 0) {
      partitions.push_back(server.cache());
      continue;
    }
    auto partition = std::make_shared<ShardedLruCache>(
        std::max<std::size_t>(1, capacity / n), kPartitionStripes);
    server.add_cache_partition(partition);
    partitions.push_back(std::move(partition));
  }
  return partitions;
}

ShardCore::ShardCore(Server& server, std::shared_ptr<ShardedLruCache> cache,
                     int shard, int shard_count, std::size_t max_connections,
                     int idle_timeout_ms)
    : server_(server),
      metrics_(server.metrics()),
      cache_(std::move(cache)),
      shard_(static_cast<std::size_t>(shard)),
      max_conns_(connection_slice(max_connections, shard_, shard_count)),
      max_line_(server.options().limits.max_request_bytes),
      idle_limit_(std::chrono::milliseconds(std::max(idle_timeout_ms, 0))),
      channel_(std::make_shared<Channel>()) {}

void ShardCore::set_wake(Wake wake, void* arg) {
  std::lock_guard<std::mutex> lock(channel_->mutex);
  channel_->wake = wake;
  channel_->wake_arg = arg;
}

ShardCore::Conn* ShardCore::admit(ConnId id, Clock::time_point now) {
  if (conns_.size() >= max_conns_) {
    metrics_.on_connection_rejected(shard_);
    return nullptr;
  }
  Conn& c = conns_[id];
  c.id = id;
  c.last_activity = now;
  metrics_.on_connection_opened(shard_);
  return &c;
}

void ShardCore::receive(Conn& c, std::string_view bytes,
                        Clock::time_point now) {
  c.last_activity = now;
  if (c.in.empty()) {
    // Nothing buffered: frame straight from the received bytes and keep
    // only the partial line left over.
    c.in.append(bytes.substr(submit_lines(c, bytes)));
  } else {
    c.in.append(bytes);
    c.in.consume(submit_lines(c, c.in.view()));
  }
  if (c.in.size() > max_line_) {
    // A line this long can only ever be rejected; answer now and stop
    // reading rather than buffering without bound.
    ++c.submitted;
    std::string body = error_body("too_large", "request line never ended");
    observe(Server::Inline::Evaluated, body);
    complete_in_order(c, c.writer.next_sequence(), std::move(body));
    c.in.clear();
    c.half_closed = true;
  }
}

void ShardCore::receive_eof(Conn& c, Clock::time_point now) {
  c.last_activity = now;
  // The final un-terminated line is a real request with a real reply.
  if (!c.in.empty()) {
    submit_line(c, c.in.view());
    c.in.clear();
  }
  c.half_closed = true;
}

void ShardCore::take_completions(std::vector<Completion>& out) {
  out.clear();
  std::lock_guard<std::mutex> lock(channel_->mutex);
  out.swap(channel_->ready);
}

ShardCore::Conn* ShardCore::complete(Completion&& done) {
  Conn* c = find(done.conn);
  if (c != nullptr) complete_in_order(*c, done.seq, std::move(done.body));
  return c;
}

void ShardCore::sent(Conn& c, std::size_t n, Clock::time_point sent_at) {
  c.last_activity = sent_at;
  consume_outbound(c, n);
}

void ShardCore::stop() noexcept {
  for (auto& [id, c] : conns_) c.half_closed = true;
}

void ShardCore::close(Conn& c, bool idle_timeout) {
  // Counters first: a peer that observes the close must already see it
  // in a stats snapshot.
  metrics_.on_connection_closed(shard_);
  if (idle_timeout) metrics_.on_connection_idle_closed(shard_);
  const ConnId id = c.id;  // erase() must not read the key it destroys
  conns_.erase(id);
}

int ShardCore::gather(Conn& c, iovec* iov) noexcept {
  int cnt = 0;
  if (!c.out.empty())
    iov[cnt++] = iovec{const_cast<char*>(c.out.data()), c.out.size()};
  for (std::size_t i = c.pending_next;
       i < c.pending.size() && cnt + 2 <= kMaxIov; ++i) {
    std::string& body = c.pending[i];
    iov[cnt++] = iovec{body.data(), body.size()};
    iov[cnt++] = iovec{const_cast<char*>(&kNewline), 1};
  }
  return cnt;
}

ShardCore::Clock::time_point ShardCore::expiry(const Conn& c) const
    noexcept {
  if (idle_limit_ == Clock::duration::zero() || c.submitted != c.written ||
      has_outbound(c))
    return Clock::time_point::max();
  // The first instant at which the idle time exceeds the limit.
  return c.last_activity + idle_limit_ + Clock::duration(1);
}

void ShardCore::collect_expired(Clock::time_point now,
                                std::vector<ConnId>& out) const {
  if (idle_limit_ == Clock::duration::zero()) return;
  for (const auto& [id, c] : conns_)
    if (expired(c, now)) out.push_back(id);
}

ShardCore::Conn* ShardCore::find(ConnId id) noexcept {
  const auto it = conns_.find(id);
  return it == conns_.end() ? nullptr : &it->second;
}

/// Accounts `n` sent bytes against out-then-pending, in send order. A
/// reply cut mid-body moves its unsent tail into `out` (the next send
/// resumes there), so partial progress is O(tail), never a front-erase
/// of everything buffered.
void ShardCore::consume_outbound(Conn& c, std::size_t n) {
  const std::size_t from_out = std::min(n, c.out.size());
  c.out.consume(from_out);
  n -= from_out;
  while (n > 0) {
    std::string& body = c.pending[c.pending_next];
    const std::size_t framed = body.size() + 1;  // + newline
    if (n >= framed) {
      n -= framed;
      ++c.pending_next;
      continue;
    }
    // Partial mid-reply: out is empty here (gather() puts it first), so
    // the tail lands at the front of the send order.
    c.out.append(body.data() + n, body.size() - n);
    c.out.push_back(kNewline);
    ++c.pending_next;
    n = 0;
  }
  if (c.pending_next == c.pending.size()) {
    c.pending.clear();
    c.pending_next = 0;
  } else if (c.pending_next >= 64) {
    // Bound the dead prefix under a never-draining pipeline.
    c.pending.erase(c.pending.begin(),
                    c.pending.begin() +
                        static_cast<std::ptrdiff_t>(c.pending_next));
    c.pending_next = 0;
  }
}

void ShardCore::submit_line(Conn& c, std::string_view line) {
  if (line.empty() || line == "\r") return;
  metrics_.on_shard_request(shard_);
  // A cache hit or a Light miss finishes here, on the shard's thread,
  // against its partition: it never touches the worker pool or another
  // core. With nothing in flight the reply is framed directly;
  // otherwise the writer holds it behind the replies still owed.
  const bool in_order = c.submitted == c.written;
  ++c.submitted;
  const Server::Inline how = server_.serve_inline(line, *cache_, scratch_);
  if (how != Server::Inline::HeavyMiss) {
    if (how == Server::Inline::Hit) metrics_.on_shard_cached(shard_);
    if (in_order)
      frame_copy(c, scratch_);
    else
      complete_in_order(c, c.writer.next_sequence(), std::string(scratch_));
    observe(how, scratch_);
    return;
  }
  // A Heavy miss (already probed and counted) goes to the pool; the
  // worker's miss-fill lands in this shard's partition, and its reply
  // comes back through the channel.
  const std::uint64_t seq = c.writer.next_sequence();
  const bool admitted = server_.enqueue(
      std::string(line),
      [channel = channel_, id = c.id, seq](std::string&& body) {
        channel->push(Completion{id, seq, std::move(body)});
      },
      cache_);
  if (admitted) {
    observe(how, {});
    return;
  }
  complete_in_order(c, seq, std::string(overloaded_body()));
  observe(how, overloaded_body());
}

// Complete lines go FIRST, so a burst of small pipelined requests is
// never mistaken for one oversized line; only the residual partial line
// is bounded.
std::size_t ShardCore::submit_lines(Conn& c, std::string_view buf) {
  std::size_t start = 0;
  for (std::size_t nl = buf.find('\n'); nl != std::string_view::npos;
       nl = buf.find('\n', start)) {
    submit_line(c, buf.substr(start, nl - start));
    start = nl + 1;
  }
  return start;
}

}  // namespace archline::serve
