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

#include "serve/shard_core.hpp"

namespace archline::serve {

namespace {

using Clock = std::chrono::steady_clock;

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

/// One event-loop shard: the epoll driver of a ShardCore. The loop owns
/// the fds, the epoll interest set, the completion and handoff
/// eventfds, spin-then-park and the drain grace; the core owns every
/// decision about a connection. Everything here is touched by exactly
/// one thread; the core's completion channel and the HandoffQueue are
/// the only cross-thread doors, and both are internally locked.
class ShardLoop {
 public:
  // epoll_event.data.u64 routing within one shard; connection ids
  // start after these.
  static constexpr std::uint64_t kListenId = 0;
  static constexpr std::uint64_t kWakeId = 1;
  static constexpr std::uint64_t kHandoffId = 2;
  static constexpr std::uint64_t kFirstConnId = 3;

  ShardLoop(Server& server, const TcpOptions& options, int shard,
            int shard_count, int listen_fd,
            std::shared_ptr<ShardedLruCache> cache, HandoffQueue* inbox,
            std::vector<HandoffQueue*> targets)
      : options_(options),
        shard_(static_cast<std::uint64_t>(shard)),
        shard_count_(static_cast<std::uint64_t>(shard_count)),
        listen_fd_(listen_fd),
        inbox_(inbox),
        targets_(std::move(targets)),
        clock_(options.clock ? *options.clock : sim::real_clock()),
        ops_(options.socket_ops ? *options.socket_ops : real_socket_ops()),
        core_(server, std::move(cache), shard, shard_count,
              options.max_connections, options.idle_timeout_ms) {}

  void run(const std::atomic<bool>& stop);

 private:
  /// A connection's socket and its state in the core.
  struct Sock {
    int fd = -1;
    std::uint32_t interest = 0;  ///< current epoll event mask
    ShardCore::Conn* conn = nullptr;
  };

  /// The core's completion wake-up: one eventfd write.
  static void wake(void* event_fd) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(*static_cast<const int*>(event_fd), &one, sizeof one);
  }

  void update_interest(Sock& s) {
    const std::uint32_t want =
        (s.conn->half_closed ? 0u : EPOLLIN) |
        (ShardCore::has_outbound(*s.conn) ? EPOLLOUT : 0u);
    if (want == s.interest) return;
    epoll_event mod{};
    mod.events = want;
    mod.data.u64 = s.conn->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, s.fd, &mod);
    s.interest = want;
  }

  void destroy(std::uint64_t id, bool idle_timeout = false) {
    auto it = socks_.find(id);
    if (it == socks_.end()) return;
    core_.close(*it->second.conn, idle_timeout);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
    ::close(it->second.fd);
    socks_.erase(it);
  }

  /// Gathers everything outbound into as few sendv() calls as the
  /// socket accepts. Returns false when the connection died (and was
  /// destroyed).
  bool flush(Sock& s) {
    ShardCore::Conn& c = *s.conn;
    while (ShardCore::has_outbound(c)) {
      const Clock::time_point sent_at = clock_.now();
      std::array<iovec, ShardCore::kMaxIov> iov;
      const int cnt = ShardCore::gather(c, iov.data());
      const ssize_t n = ops_.sendv(s.fd, iov.data(), cnt);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        destroy(c.id);
        return false;
      }
      if (n == 0) break;  // defensive: no progress, no spin
      core_.sent(c, static_cast<std::size_t>(n), sent_at);
    }
    return true;
  }

  /// After the core took input for `s`: send what is ready, close the
  /// connection once it is finished, else refresh its interest.
  /// Returns false when the connection was closed.
  bool settle(Sock& s) {
    if (!flush(s)) return false;
    if (ShardCore::finished(*s.conn)) {
      destroy(s.conn->id);
      return false;
    }
    update_interest(s);
    return true;
  }

  void handle_read(Sock& s) {
    char chunk[ConsumableBuffer::kReadChunkBytes];
    const ssize_t n = ops_.recv(s.fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK)
        destroy(s.conn->id);
      return;
    }
    if (n == 0)
      core_.receive_eof(*s.conn, clock_.now());
    else
      core_.receive(*s.conn,
                    std::string_view(chunk, static_cast<std::size_t>(n)),
                    clock_.now());
    // Replies finished on this thread leave in one sendv now, not after
    // another epoll round trip for EPOLLOUT.
    settle(s);
  }

  /// Registers an accepted (or handed-off) fd with this shard, or
  /// rejects it against the shard's connection slice.
  void admit(int fd) {
    ShardCore::Conn* c = core_.admit(next_id_, clock_.now());
    if (c == nullptr) {
      // Admission control at the door: a canned overloaded reply (best
      // effort — the socket buffer of a fresh connection always has
      // room for one line) and an immediate close.
      const std::string reply = overloaded_body() + "\n";
      [[maybe_unused]] const ssize_t n =
          ops_.send(fd, reply.data(), reply.size());
      ::close(fd);
      return;
    }
    ++next_id_;
    socks_.emplace(c->id, Sock{fd, EPOLLIN, c});
    epoll_event add{};
    add.events = EPOLLIN;
    add.data.u64 = c->id;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &add);
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
        if (target != shard_) {
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
        ::read(wake_fd_, &counter, sizeof counter);
    core_.take_completions(ready_);
    // Frame everything first, then flush each touched connection once —
    // this is what turns a burst of pipelined completions into a
    // single writev per connection.
    ids_.clear();
    for (ShardCore::Completion& done : ready_) {
      const ShardCore::Conn* c = core_.complete(std::move(done));
      if (c == nullptr) continue;  // connection already gone
      if (ids_.empty() || ids_.back() != c->id) ids_.push_back(c->id);
    }
    for (const std::uint64_t id : ids_) {
      auto it = socks_.find(id);
      if (it != socks_.end()) settle(it->second);
    }
  }

  /// Every open connection's id, for loops that may destroy.
  const std::vector<std::uint64_t>& open_ids() {
    ids_.clear();
    for (const auto& [id, s] : socks_) ids_.push_back(id);
    return ids_;
  }

  const TcpOptions& options_;
  const std::uint64_t shard_;
  const std::uint64_t shard_count_;
  const int listen_fd_;  ///< -1: this shard does not accept
  HandoffQueue* const inbox_;  ///< null unless handoff-mode non-acceptor
  const std::vector<HandoffQueue*> targets_;  ///< non-empty: acceptor
  const sim::ClockSource& clock_;
  SocketOps& ops_;
  ShardCore core_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< the completion eventfd
  std::unordered_map<std::uint64_t, Sock> socks_;
  std::uint64_t next_id_ = kFirstConnId;
  std::uint64_t next_target_ = 0;
  bool stopping_ = false;
  Clock::time_point stop_at_{};
  std::vector<ShardCore::Completion> ready_;
  std::vector<std::uint64_t> ids_;
  std::vector<int> handed_;
};

void ShardLoop::run(const std::atomic<bool>& stop) {
  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return;
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    return;
  }
  core_.set_wake(&ShardLoop::wake, &wake_fd_);

  epoll_event ev{};
  ev.events = EPOLLIN;
  if (listen_fd_ >= 0) {
    ev.data.u64 = kListenId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  }
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  if (inbox_) {
    ev.data.u64 = kHandoffId;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, inbox_->event_fd, &ev);
  }

  std::array<epoll_event, 64> events;
  Clock::time_point last_events_at{};  // epoch: the first wait parks
  std::vector<std::uint64_t> expired;

  while (true) {
    if (!stopping_ && stop.load(std::memory_order_acquire)) {
      // Stop accepting, stop reading; keep looping until every
      // admitted request has been answered and flushed.
      stopping_ = true;
      stop_at_ = clock_.now();
      if (listen_fd_ >= 0)
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
      core_.stop();
      for (const std::uint64_t id : open_ids()) {
        Sock& s = socks_.at(id);
        if (ShardCore::finished(*s.conn))
          destroy(id);
        else
          update_interest(s);
      }
    }
    if (stopping_ && socks_.empty()) break;
    const auto grace = std::chrono::milliseconds(options_.drain_grace_ms);
    if (stopping_ && clock_.now() - stop_at_ > grace) {
      // Peers that stopped reading do not get to hold shutdown hostage.
      for (const std::uint64_t id : open_ids()) destroy(id);
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
      auto it = socks_.find(id);
      if (it == socks_.end()) continue;  // destroyed earlier this batch
      if (flags & (EPOLLHUP | EPOLLERR)) {
        destroy(id);
        continue;
      }
      if ((flags & EPOLLIN) && !it->second.conn->half_closed) {
        handle_read(it->second);
        it = socks_.find(id);
        if (it == socks_.end()) continue;
      }
      if (flags & EPOLLOUT) settle(it->second);
    }

    // Idle sweep: the core names the connections that idled past the
    // timeout with nothing owed or unsent.
    expired.clear();
    core_.collect_expired(clock_.now(), expired);
    for (const std::uint64_t id : expired) destroy(id, /*idle_timeout=*/true);
  }

  // Straggler callbacks (e.g. the queue drain inside Server::shutdown)
  // may still fire after this point; stop the core's wake-ups so they
  // never touch the closed eventfd. Likewise the handoff inbox: fds
  // the acceptor pushes from here on are closed at the push.
  core_.set_wake(nullptr, nullptr);
  ::close(wake_fd_);
  wake_fd_ = -1;
  if (inbox_) inbox_->close_incoming();
  for (const auto& [id, s] : socks_) ::close(s.fd);
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
  for (const auto& p : partitions_)
    if (p != server_.cache()) server_.remove_cache_partition(p.get());
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

  // Per-shard response-cache partitions; with caching off the shards
  // share the server's own (disabled) partition.
  partitions_ = make_shard_partitions(server_, shards_);
  return true;
}

void TcpListener::run(const std::atomic<bool>& stop) {
  if (listen_fds_.empty()) return;
  server_.metrics().set_transport_shards(static_cast<std::size_t>(shards_));

  const std::size_t n = static_cast<std::size_t>(shards_);
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
    ShardLoop loop(server_, options_, shard, shards_, lfd, partitions_[i],
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
