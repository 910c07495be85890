#include "serve/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/iobuf.hpp"

namespace archline::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Frame separator shared by every iovec the flush path builds.
constexpr char kNewline = '\n';

/// Most reply segments one sendv() call gathers. 64 replies per
/// syscall amortizes the crossing thoroughly; IOV_MAX is 1024, so the
/// 2-segments-per-reply layout stays far under the kernel limit.
constexpr int kMaxIov = 64;

/// Spin, then park: a shard whose last non-empty epoll_wait returned
/// less than this long ago polls with timeout 0 (yielding its CPU after
/// each empty poll) instead of blocking, so a request that follows
/// within the window skips the park/wake. Measured on the steady clock
/// itself, never the injectable ClockSource: a frozen SimClock would
/// keep the window open forever.
constexpr auto kSpinBeforePark = std::chrono::milliseconds(1);

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Worker threads finish responses out on their own schedule; this is
/// the hand-off back to the owning shard. complete() under the writer's
/// lock pushes each connection's responses here in FIFO order, and the
/// eventfd wakes that shard's epoll_wait. After close() pushes are
/// dropped — that is what makes it safe for straggler callbacks (queue
/// drain during Server::shutdown) to outlive the loop.
struct CompletionChannel {
  std::mutex mutex;
  std::vector<std::pair<std::uint64_t, std::string>> ready;
  int event_fd = -1;
  bool closed = false;

  void push(std::uint64_t conn_id, const std::string& body) {
    std::lock_guard<std::mutex> lock(mutex);
    if (closed) return;
    ready.emplace_back(conn_id, body);
    const std::uint64_t one = 1;
    // Under the lock so close() cannot free the fd mid-write.
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof one);
  }

  void take(std::vector<std::pair<std::uint64_t, std::string>>& out) {
    std::lock_guard<std::mutex> lock(mutex);
    out.swap(ready);
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
  }
};

/// Handoff-fallback plumbing: the acceptor shard pushes freshly
/// accepted fds here; the owning shard's eventfd wakes it to admit
/// them. After close_incoming() (owner teardown) pushes close the fd
/// instead of parking it — nobody would ever drain it.
struct HandoffQueue {
  std::mutex mutex;
  std::vector<int> fds;
  int event_fd = -1;
  bool closed = false;

  void push(int fd) {
    std::unique_lock<std::mutex> lock(mutex);
    if (closed) {
      lock.unlock();
      ::close(fd);
      return;
    }
    fds.push_back(fd);
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd, &one, sizeof one);
  }

  void take(std::vector<int>& out) {
    std::lock_guard<std::mutex> lock(mutex);
    out.swap(fds);
  }

  void close_incoming() {
    std::lock_guard<std::mutex> lock(mutex);
    closed = true;
    for (const int fd : fds) ::close(fd);
    fds.clear();
  }
};

/// Everything a shard knows about one socket. `submitted` counts
/// requests accepted from the wire; `written` counts responses framed
/// for sending; the connection may close only when they agree and the
/// outbound buffers have drained.
///
/// Outbound data lives in two places, always sent in this order:
///   * `out`    — partially-sent residue and copied inline-hit frames
///                (cursor buffer: consuming sent bytes is O(1));
///   * `pending`— whole reply bodies not yet touched by sendv(), moved
///                in from workers with zero copies; flush() gathers
///                them (+ newline separators) into one writev.
struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::shared_ptr<OrderedWriter> writer;
  ConsumableBuffer in;   ///< residual partial line (no newline yet)
  ConsumableBuffer out;  ///< framed bytes awaiting (re)send
  std::vector<std::string> pending;  ///< un-sent reply bodies, FIFO
  std::size_t pending_next = 0;      ///< first un-sent index in pending
  std::uint64_t submitted = 0;
  std::uint64_t written = 0;
  /// No further reads: peer EOF, an oversized line, or server stop.
  bool half_closed = false;
  std::uint32_t interest = 0;  ///< current epoll event mask
  Clock::time_point last_activity;
};

[[nodiscard]] bool has_outbound(const Conn& c) noexcept {
  return !c.out.empty() || c.pending_next < c.pending.size();
}

/// One event-loop shard: its own epoll instance, connection table,
/// completion channel, and (optionally) listen socket, handoff inbox,
/// and response-cache partition. Everything here is touched by exactly
/// one thread; the CompletionChannel and HandoffQueue are the only
/// cross-thread doors, and both are internally locked.
class ShardLoop {
 public:
  // epoll_event.data.u64 routing within one shard.
  static constexpr std::uint64_t kListenId = 0;
  static constexpr std::uint64_t kWakeId = 1;
  static constexpr std::uint64_t kHandoffId = 2;
  static constexpr std::uint64_t kFirstConnId = 3;

  ShardLoop(Server& server, const TcpOptions& options, int shard,
            int shard_count, int listen_fd,
            std::shared_ptr<ShardedLruCache> cache, std::size_t max_conns,
            HandoffQueue* inbox, std::vector<HandoffQueue*> targets)
      : server_(server),
        options_(options),
        shard_(static_cast<std::size_t>(shard)),
        shard_count_(static_cast<std::uint64_t>(shard_count)),
        listen_fd_(listen_fd),
        cache_(std::move(cache)),
        max_conns_(max_conns),
        inbox_(inbox),
        targets_(std::move(targets)),
        metrics_(server.metrics()),
        max_line_(server.options().limits.max_request_bytes),
        clock_(options.clock ? *options.clock : sim::real_clock()),
        ops_(options.socket_ops ? *options.socket_ops : real_socket_ops()) {}

  void run(const std::atomic<bool>& stop);

 private:
  void update_interest(Conn& c) {
    const std::uint32_t want =
        (c.half_closed ? 0u : EPOLLIN) | (has_outbound(c) ? EPOLLOUT : 0u);
    if (want == c.interest) return;
    epoll_event mod{};
    mod.events = want;
    mod.data.u64 = c.id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &mod);
    c.interest = want;
  }

  void destroy(std::uint64_t id, bool idle_timeout = false) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    // Counters first: a peer that observes the EOF must already see the
    // close reflected in a stats snapshot.
    metrics_.on_connection_closed(shard_);
    if (idle_timeout) metrics_.on_connection_idle_closed(shard_);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    conns_.erase(it);
  }

  /// Accounts `n` sent bytes against out-then-pending, in send order.
  /// A reply cut mid-body moves its unsent tail into `out` (the next
  /// writev resumes there), so partial progress is O(tail), never a
  /// front-erase of everything buffered.
  void consume_outbound(Conn& c, std::size_t n) {
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
      // Partial mid-reply: out is empty here (writev consumed it
      // first), so the tail lands at the front of the send order.
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

  /// Gathers everything outbound into as few sendv() calls as the
  /// socket accepts. Returns false when the connection died (and was
  /// destroyed).
  bool flush(Conn& c) {
    while (has_outbound(c)) {
      // Stamped BEFORE the send: once the bytes are out, the peer may
      // read them and advance a SimClock before this thread runs again,
      // and a later stamp would then make the connection look freshly
      // active forever (the idle sweep would never fire).
      const Clock::time_point sent_at = clock_.now();
      std::array<iovec, kMaxIov> iov;
      int cnt = 0;
      if (!c.out.empty()) {
        iov[static_cast<std::size_t>(cnt++)] =
            iovec{const_cast<char*>(c.out.data()), c.out.size()};
      }
      for (std::size_t i = c.pending_next;
           i < c.pending.size() && cnt + 2 <= kMaxIov; ++i) {
        std::string& body = c.pending[i];
        iov[static_cast<std::size_t>(cnt++)] =
            iovec{body.data(), body.size()};
        iov[static_cast<std::size_t>(cnt++)] =
            iovec{const_cast<char*>(&kNewline), 1};
      }
      const ssize_t n = ops_.sendv(c.fd, iov.data(), cnt);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        destroy(c.id);
        return false;
      }
      if (n == 0) break;  // defensive: no progress, no spin
      c.last_activity = sent_at;
      consume_outbound(c, static_cast<std::size_t>(n));
    }
    return true;
  }

  /// Close once nothing can ever arrive for this connection again.
  /// Returns false when the connection was closed.
  bool maybe_close(Conn& c) {
    if (c.half_closed && c.written == c.submitted && !has_outbound(c)) {
      destroy(c.id);
      return false;
    }
    return true;
  }

  /// A worker-completed reply: takes ownership, zero copies.
  void frame_owned(Conn& c, std::string&& body) {
    ++c.written;
    c.pending.push_back(std::move(body));
  }

  /// A reply finished on this thread: the body lives in the loop's
  /// reusable scratch buffer, so it is copied out — into `out` when
  /// FIFO allows (its capacity is reused across requests; zero
  /// allocations steady-state), else into pending.
  void frame_copy(Conn& c, const std::string& body) {
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

  void submit_line(Conn& c, std::string_view line) {
    if (line.empty() || line == "\r") return;
    metrics_.on_shard_request(shard_);
    // A cache hit or a Light miss finishes here, on the loop thread,
    // against this shard's partition: it never touches the worker pool
    // or another core. FIFO safety: with nothing in flight the reply is
    // framed directly; otherwise it is sequenced through the
    // OrderedWriter behind the in-flight responses.
    const bool in_order = c.submitted == c.written;
    ++c.submitted;
    const Server::Inline how = server_.serve_inline(line, *cache_, scratch_);
    if (how != Server::Inline::HeavyMiss) {
      if (how == Server::Inline::Hit) metrics_.on_shard_cached(shard_);
      if (in_order) {
        frame_copy(c, scratch_);
      } else {
        const std::uint64_t seq = c.writer->next_sequence();
        c.writer->complete(seq, std::string(scratch_));
      }
      return;
    }
    // A Heavy miss (already probed and counted) goes to the pool; the
    // worker's miss-fill lands in this shard's partition.
    const std::uint64_t seq = c.writer->next_sequence();
    std::shared_ptr<OrderedWriter> writer = c.writer;
    const bool admitted = server_.enqueue(
        std::string(line),
        [writer, seq](std::string&& body) {
          writer->complete(seq, std::move(body));
        },
        cache_);
    if (!admitted)
      c.writer->complete(seq, std::string(overloaded_body()));
  }

  // Extracts complete lines FIRST, so a burst of small pipelined
  // requests is never mistaken for one oversized line; only the
  // residual partial line is bounded. On EOF the final un-terminated
  // line is a real request and gets a real reply.
  void process_input(Conn& c, bool eof) {
    const std::string_view buf = c.in.view();
    std::size_t start = 0;
    for (std::size_t nl = buf.find('\n', start);
         nl != std::string_view::npos; nl = buf.find('\n', start)) {
      submit_line(c, buf.substr(start, nl - start));
      start = nl + 1;
    }
    c.in.consume(start);
    if (eof) {
      if (!c.in.empty()) {
        submit_line(c, c.in.view());
        c.in.clear();
      }
      c.half_closed = true;
    } else if (c.in.size() > max_line_) {
      // A line this long can only ever be rejected; answer now and
      // stop reading rather than buffering without bound.
      const std::uint64_t seq = c.writer->next_sequence();
      ++c.submitted;
      c.writer->complete(
          seq, error_body("too_large", "request line never ended"));
      c.in.clear();
      c.half_closed = true;
    }
  }

  // Returns false when the connection was destroyed.
  bool handle_read(Conn& c) {
    char chunk[65536];
    const ssize_t n = ops_.recv(c.fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        return true;
      destroy(c.id);
      return false;
    }
    c.last_activity = clock_.now();
    if (n == 0) {
      process_input(c, /*eof=*/true);
    } else {
      c.in.append(chunk, static_cast<std::size_t>(n));
      process_input(c, /*eof=*/false);
    }
    // Replies finished on this thread leave in one sendv now, not after
    // another epoll round trip for EPOLLOUT.
    if (!flush(c)) return false;
    if (!maybe_close(c)) return false;
    update_interest(c);
    return true;
  }

  /// Registers an accepted (or handed-off) fd with this shard, or
  /// rejects it against the shard's connection slice.
  void admit(int fd) {
    if (conns_.size() >= max_conns_) {
      // Admission control at the door: a canned overloaded reply
      // (best effort — the socket buffer of a fresh connection
      // always has room for one line) and an immediate close.
      metrics_.on_connection_rejected(shard_);
      const std::string reply = overloaded_body() + "\n";
      [[maybe_unused]] const ssize_t n =
          ops_.send(fd, reply.data(), reply.size());
      ::close(fd);
      return;
    }
    const std::uint64_t id = next_id_++;
    Conn& c = conns_[id];
    c.fd = fd;
    c.id = id;
    c.last_activity = clock_.now();
    c.interest = EPOLLIN;
    std::shared_ptr<CompletionChannel> channel = channel_;
    c.writer = std::make_shared<OrderedWriter>(
        [channel, id](const std::string& body) {
          channel->push(id, body);
        });
    epoll_event add{};
    add.events = EPOLLIN;
    add.data.u64 = id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &add);
    metrics_.on_connection_opened(shard_);
  }

  void handle_accepts() {
    for (int burst = 0; burst < 256; ++burst) {
      const int fd = ops_.accept(listen_fd_);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN or a real error; either way, wait for epoll
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      if (!targets_.empty()) {
        // Handoff fallback: deterministic round-robin placement in
        // accept order, self included.
        const std::uint64_t target = next_target_++ % shard_count_;
        if (target != static_cast<std::uint64_t>(shard_)) {
          targets_[static_cast<std::size_t>(target)]->push(fd);
          continue;
        }
      }
      admit(fd);
    }
  }

  void drain_handoff() {
    std::uint64_t counter = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(inbox_->event_fd, &counter, sizeof counter);
    handed_.clear();
    inbox_->take(handed_);
    for (const int fd : handed_) {
      if (stopping_) {
        // Raced the stop: treat like a connection still in the backlog
        // — never admitted, silently closed.
        ::close(fd);
        continue;
      }
      admit(fd);
    }
  }

  void drain_completions() {
    std::uint64_t counter = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(channel_->event_fd, &counter, sizeof counter);
    ready_.clear();
    channel_->take(ready_);
    // Frame everything first, then flush each touched connection once —
    // this is what turns a burst of pipelined completions into a
    // single writev per connection.
    touched_.clear();
    for (auto& [id, body] : ready_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // connection already gone
      frame_owned(it->second, std::move(body));
      if (touched_.empty() || touched_.back() != id) touched_.push_back(id);
    }
    for (const std::uint64_t id : touched_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      Conn& c = it->second;
      if (!flush(c)) continue;
      if (!maybe_close(c)) continue;
      update_interest(c);
    }
  }

  Server& server_;
  const TcpOptions& options_;
  const std::size_t shard_;
  const std::uint64_t shard_count_;
  const int listen_fd_;  ///< -1: this shard does not accept
  const std::shared_ptr<ShardedLruCache> cache_;  ///< never null
  const std::size_t max_conns_;
  HandoffQueue* const inbox_;  ///< null unless handoff-mode non-acceptor
  const std::vector<HandoffQueue*> targets_;  ///< non-empty: acceptor
  Metrics& metrics_;
  const std::size_t max_line_;
  const sim::ClockSource& clock_;
  SocketOps& ops_;

  int epoll_fd_ = -1;
  std::shared_ptr<CompletionChannel> channel_;
  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_id_ = kFirstConnId;
  std::uint64_t next_target_ = 0;
  bool stopping_ = false;
  Clock::time_point stop_at_{};
  std::string scratch_;  ///< inline cache-hit reply buffer (reused)
  std::vector<std::pair<std::uint64_t, std::string>> ready_;
  std::vector<std::uint64_t> touched_;
  std::vector<int> handed_;
};

void ShardLoop::run(const std::atomic<bool>& stop) {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return;
  channel_ = std::make_shared<CompletionChannel>();
  channel_->event_fd = ::eventfd(0, EFD_NONBLOCK);
  if (channel_->event_fd < 0) {
    ::close(epoll_fd_);
    return;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  if (listen_fd_ >= 0) {
    ev.data.u64 = kListenId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, channel_->event_fd, &ev);
  if (inbox_) {
    ev.data.u64 = kHandoffId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, inbox_->event_fd, &ev);
  }

  std::array<epoll_event, 64> events;
  Clock::time_point last_events_at{};  // epoch: the first wait parks

  while (true) {
    if (!stopping_ && stop.load(std::memory_order_acquire)) {
      // Stop accepting, stop reading; keep looping until every
      // admitted request has been answered and flushed.
      stopping_ = true;
      stop_at_ = clock_.now();
      if (listen_fd_ >= 0)
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (auto& [id, c] : conns_) ids.push_back(id);
      for (const std::uint64_t id : ids) {
        auto it = conns_.find(id);
        if (it == conns_.end()) continue;
        it->second.half_closed = true;
        if (!maybe_close(it->second)) continue;
        update_interest(it->second);
      }
    }
    if (stopping_ && conns_.empty()) break;
    const auto grace = std::chrono::milliseconds(options_.drain_grace_ms);
    if (stopping_ && clock_.now() - stop_at_ > grace) {
      // Peers that stopped reading do not get to hold shutdown hostage.
      std::vector<std::uint64_t> ids;
      ids.reserve(conns_.size());
      for (auto& [id, c] : conns_) ids.push_back(id);
      for (const std::uint64_t id : ids) destroy(id);
      break;
    }

    // Spin only while traffic keeps arriving; otherwise (and always
    // while stopping) block for the poll interval.
    const bool spin =
        !stopping_ && Clock::now() - last_events_at < kSpinBeforePark;
    int timeout = spin ? 0 : options_.poll_interval_ms;
    if (stopping_) {
      // The grace check above only runs when epoll_wait returns, so the
      // wait itself must never outlive the remaining grace: clamp the
      // timeout to it (+1ms to land past the strict `>` boundary).
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              grace - (clock_.now() - stop_at_))
              .count() +
          1;
      if (remaining < static_cast<long long>(timeout))
        timeout = static_cast<int>(std::max<long long>(0, remaining));
    }

    const int n_events =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), timeout);
    if (n_events < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n_events == 0 && spin) {
      // Give the CPU to whoever shares it (workers, peers, other
      // shards) before the next poll; skip the idle sweep, which walks
      // every connection.
      ::sched_yield();
      continue;
    }
    if (n_events > 0) last_events_at = Clock::now();

    for (int i = 0; i < n_events; ++i) {
      const std::uint64_t id = events[static_cast<std::size_t>(i)].data.u64;
      const std::uint32_t flags =
          events[static_cast<std::size_t>(i)].events;
      if (id == kListenId) {
        if (!stopping_) handle_accepts();
        continue;
      }
      if (id == kWakeId) {
        drain_completions();
        continue;
      }
      if (id == kHandoffId) {
        drain_handoff();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // destroyed earlier this batch
      Conn& c = it->second;
      if (flags & (EPOLLHUP | EPOLLERR)) {
        destroy(id);
        continue;
      }
      if ((flags & EPOLLIN) && !c.half_closed) {
        if (!handle_read(c)) continue;
      }
      if (flags & EPOLLOUT) {
        if (!flush(c)) continue;
        if (!maybe_close(c)) continue;
        update_interest(c);
      }
    }

    // Idle sweep: connections with no traffic and nothing in flight for
    // idle_timeout_ms are closed. Ones with pending responses are
    // exempt — they are "busy", just waiting on workers or the socket.
    if (options_.idle_timeout_ms > 0) {
      const auto now = clock_.now();
      const auto limit = std::chrono::milliseconds(options_.idle_timeout_ms);
      std::vector<std::uint64_t> expired;
      for (auto& [id, c] : conns_) {
        const bool pending = c.submitted != c.written || has_outbound(c);
        if (!pending && now - c.last_activity > limit) expired.push_back(id);
      }
      for (const std::uint64_t id : expired)
        destroy(id, /*idle_timeout=*/true);
    }
  }

  // Straggler callbacks (e.g. the queue drain inside Server::shutdown)
  // may still fire after this point; mark the channel closed so their
  // pushes are dropped instead of touching freed fds. Likewise the
  // handoff inbox: fds the acceptor pushes from here on are closed at
  // the push.
  channel_->close();
  ::close(channel_->event_fd);
  channel_->event_fd = -1;
  if (inbox_) inbox_->close_incoming();
  for (auto& [id, c] : conns_) ::close(c.fd);
  ::close(epoll_fd_);
}

}  // namespace

int SocketOps::accept(int listen_fd) noexcept {
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
}

ssize_t SocketOps::recv(int fd, char* buf, std::size_t len) noexcept {
  return ::recv(fd, buf, len, 0);
}

ssize_t SocketOps::send(int fd, const char* buf, std::size_t len) noexcept {
  return ::send(fd, buf, len, MSG_NOSIGNAL);
}

ssize_t SocketOps::sendv(int fd, const struct iovec* iov,
                         int iovcnt) noexcept {
  // Mock-friendly default: one segment through the (possibly
  // overridden) send() — a legal short write the loop recovers from.
  // The real implementation below gathers everything.
  for (int i = 0; i < iovcnt; ++i) {
    if (iov[i].iov_len == 0) continue;
    return send(fd, static_cast<const char*>(iov[i].iov_base),
                iov[i].iov_len);
  }
  return 0;
}

namespace {

/// The kernel-backed SocketOps: sendv is a true scatter-gather
/// sendmsg, everything else inherits the real syscalls.
class RealSocketOps final : public SocketOps {
 public:
  [[nodiscard]] ssize_t sendv(int fd, const struct iovec* iov,
                              int iovcnt) noexcept override {
    msghdr msg{};
    msg.msg_iov = const_cast<struct iovec*>(iov);
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
  }
};

}  // namespace

std::vector<int> shard_cpus(const cpu_set_t& allowed, int shards) {
  if (shards < 1 || CPU_COUNT(&allowed) < shards) return {};
  std::vector<int> cpus;
  cpus.reserve(static_cast<std::size_t>(shards));
  for (int cpu = 0; static_cast<int>(cpus.size()) < shards; ++cpu)
    if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed))
      cpus.push_back(cpu);
  return cpus;
}

SocketOps& real_socket_ops() noexcept {
  static RealSocketOps ops;
  return ops;
}

TcpListener::TcpListener(Server& server, TcpOptions options)
    : server_(server), options_(std::move(options)) {}

TcpListener::~TcpListener() {
  close_listeners();
  drop_partitions();
}

void TcpListener::close_listeners() noexcept {
  for (const int fd : listen_fds_) ::close(fd);
  listen_fds_.clear();
}

void TcpListener::drop_partitions() noexcept {
  for (const auto& p : partitions_) server_.remove_cache_partition(p.get());
  partitions_.clear();
}

int TcpListener::open_socket(std::uint16_t port, bool reuseport,
                             std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    if (error)
      *error = std::string("setsockopt(SO_REUSEPORT): ") +
               std::strerror(errno);
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    if (error) *error = "invalid bind address: " + options_.bind_address;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    if (error) *error = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (::listen(fd, options_.backlog) < 0) {
    if (error) *error = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (!set_nonblocking(fd)) {
    if (error) *error = std::string("fcntl: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

bool TcpListener::open(std::string* error) {
  // Re-open support without leaks: whatever a previous open created is
  // released first, successful or not.
  close_listeners();
  drop_partitions();
  port_ = 0;
  reuseport_ = false;

  shards_ = std::clamp(options_.shards, 1, kMaxShards);
  if (options_.max_connections > 0 &&
      static_cast<std::size_t>(shards_) > options_.max_connections)
    shards_ = static_cast<int>(options_.max_connections);

  const bool want_reuseport = options_.use_reuseport && shards_ > 1;
  int fd = open_socket(options_.port, want_reuseport, error);
  if (fd < 0 && want_reuseport) {
    // Kernel without SO_REUSEPORT: fall back to the acceptor-handoff
    // mode on a plain socket.
    fd = open_socket(options_.port, false, error);
  }
  if (fd < 0) return false;
  listen_fds_.push_back(fd);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0)
    port_ = ntohs(bound.sin_port);

  if (want_reuseport) {
    // Probe whether the option actually stuck (old kernels accept the
    // setsockopt but don't balance; SO_REUSEPORT has been reliable
    // since 3.9 — the getsockopt check covers the exotic cases).
    int set = 0;
    socklen_t len = sizeof set;
    reuseport_ = ::getsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &set, &len) == 0 &&
                 set != 0;
  }
  if (reuseport_) {
    for (int i = 1; i < shards_; ++i) {
      const int extra = open_socket(port_, true, error);
      if (extra < 0) {
        // Sibling bind failed (port raced away, limits): fall back to
        // handoff mode rather than failing a bindable configuration.
        while (listen_fds_.size() > 1) {
          ::close(listen_fds_.back());
          listen_fds_.pop_back();
        }
        reuseport_ = false;
        break;
      }
      listen_fds_.push_back(extra);
    }
  }

  // Per-shard response-cache partitions, each a slice of the server's
  // configured capacity. Generation scoping (entries remember the
  // online-parameter generation they were filled under) makes refit
  // invalidation work per-partition for free. With caching off the
  // shards share the server's own (disabled) partition.
  const std::size_t cache_capacity = server_.options().cache_capacity;
  if (cache_capacity > 0) {
    const std::size_t per_shard = std::max<std::size_t>(
        1, cache_capacity / static_cast<std::size_t>(shards_));
    partitions_.reserve(static_cast<std::size_t>(shards_));
    for (int i = 0; i < shards_; ++i) {
      auto partition = std::make_shared<ShardedLruCache>(per_shard,
                                                         /*shards=*/4);
      server_.add_cache_partition(partition);
      partitions_.push_back(std::move(partition));
    }
  }
  return true;
}

void TcpListener::run(const std::atomic<bool>& stop) {
  if (listen_fds_.empty()) return;
  server_.metrics().set_transport_shards(static_cast<std::size_t>(shards_));

  // The connection cap is divided across shards, remainder first — so
  // the sum is exactly max_connections and shards=1 keeps the old
  // whole-cap semantics.
  const std::size_t n = static_cast<std::size_t>(shards_);
  std::vector<std::size_t> caps(n);
  for (std::size_t i = 0; i < n; ++i)
    caps[i] = options_.max_connections / n +
              (i < options_.max_connections % n ? 1 : 0);

  const bool handoff_mode = !reuseport_ && shards_ > 1;
  std::vector<std::unique_ptr<HandoffQueue>> handoff(n);
  std::vector<HandoffQueue*> targets;
  if (handoff_mode) {
    targets.assign(n, nullptr);
    for (std::size_t i = 1; i < n; ++i) {
      handoff[i] = std::make_unique<HandoffQueue>();
      handoff[i]->event_fd = ::eventfd(0, EFD_NONBLOCK);
      targets[i] = handoff[i].get();
    }
  }

  // Shard-thread pinning: shard i -> the i-th CPU this process may run
  // on, applied by each loop thread to itself (shard 0 pins the caller
  // of run()). Requested but impossible (fewer allowed CPUs than
  // shards) degrades to a logged no-op — a laptop running a 4-shard
  // config should serve, not die.
  std::vector<int> cpus;
  if (options_.pin_shards) {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0)
      cpus = shard_cpus(allowed, shards_);
    if (cpus.empty())
      std::fprintf(stderr,
                   "archline-serve: --pin-shards ignored: %d shards but only "
                   "%d allowed CPUs\n",
                   shards_, CPU_COUNT(&allowed));
  }

  const auto run_shard = [&](int shard) {
    const std::size_t i = static_cast<std::size_t>(shard);
    if (!cpus.empty()) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<std::size_t>(cpus[i]), &set);
      const int rc =
          ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set);
      if (rc == 0)
        std::fprintf(stderr, "archline-serve: shard %d pinned to CPU %d\n",
                     shard, cpus[i]);
      else
        std::fprintf(stderr,
                     "archline-serve: pinning shard %d to CPU %d failed: %s\n",
                     shard, cpus[i], std::strerror(rc));
    }
    const int lfd = reuseport_ ? listen_fds_[i]
                               : (shard == 0 ? listen_fds_[0] : -1);
    ShardLoop loop(server_, options_, shard, shards_, lfd,
                   partitions_.empty() ? server_.cache() : partitions_[i],
                   caps[i],
                   handoff_mode && shard > 0 ? handoff[i].get() : nullptr,
                   handoff_mode && shard == 0 ? targets
                                              : std::vector<HandoffQueue*>{});
    loop.run(stop);
  };

  std::vector<std::thread> threads;
  threads.reserve(n - 1);
  for (int i = 1; i < shards_; ++i)
    threads.emplace_back(run_shard, i);
  run_shard(0);
  for (std::thread& t : threads) t.join();
  // Handoff eventfds outlive every shard (the acceptor may write to a
  // peer's fd right up to its own exit), so they close here, after all
  // joins.
  for (const auto& q : handoff)
    if (q && q->event_fd >= 0) ::close(q->event_fd);
}

}  // namespace archline::serve
