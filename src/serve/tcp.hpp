#pragma once
// TCP transport for serve::Server: N thread-per-core epoll event-loop
// shards. Each shard owns its listen socket (SO_REUSEPORT — the kernel
// load-balances accepts by 4-tuple hash), its connection table, its
// completion eventfd, a partition of the response cache, and a Metrics
// stripe. A cache hit or a Light miss runs to completion on the loop
// thread that framed it (probe, parse, evaluate, render, miss-fill into
// the shard's partition, frame), so Light work never crosses a core
// boundary. Only Heavy misses are handed to the Server's worker pool.
// Where SO_REUSEPORT is unavailable (or disabled for deterministic
// placement in tests), shard 0 accepts and round-robins fds to its
// peers over eventfd-signalled handoff queues.
//
// Each shard is an epoll driver around a serve::ShardCore
// (serve/shard_core.hpp), which makes every connection decision with no
// I/O: framing, in-order release, admission, idle expiry, half-close on
// stop. The driver owns the fds, the epoll interest set, the completion
// and handoff eventfds, spin-then-park and the drain grace, and feeds
// the core through the SocketOps and ClockSource seams below; the
// virtual-time sim::Campaign drives the same core.
//
// Workers hand finished Heavy replies back to the owning shard through
// the core's completion channel and the shard's eventfd; a
// per-connection OrderedWriter keeps them in request order with the
// inline replies. The shard coalesces every reply buffered for a
// connection into one writev() per epoll wake, falling back to EPOLLOUT
// when the socket's send buffer is full. A busy shard simply stops
// reading, which is the transport's backpressure. For 1 ms after its
// last events a shard polls without blocking (yielding its CPU between
// empty polls), then parks in epoll_wait, so steady traffic skips the
// wake-up and an idle server uses no CPU.
//
// Connection lifecycle is bounded and explicit:
//   * at most `max_connections` sockets are admitted (split across
//     shards) — the accept path answers anyone beyond that with the
//     canned "overloaded" error and closes immediately;
//   * a connection idle longer than `idle_timeout_ms` with no pending
//     work is closed by its shard;
//   * Heavy misses inherit the Server's queue deadline, so a job that
//     out-waits the queue is answered with "deadline_exceeded";
//   * on peer half-close (EOF with buffered bytes), the final
//     un-terminated line is still processed and answered before the
//     connection closes.
//
// Linux-only (epoll + eventfd); the stdio transport in server.hpp is
// the portable fallback.

#include <sched.h>
#include <sys/types.h>
#include <sys/uio.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/server.hpp"
#include "sim/clock.hpp"

namespace archline::serve {

/// The event loop's window onto the kernel socket API — the seam the
/// tests' FaultyTransport (tests/support/fault.hpp) wraps to inject
/// partial writes, split reads, EAGAIN storms, mid-frame resets, and
/// accept failures without a misbehaving peer. Implementations mimic the syscalls they wrap:
/// return counts / fds on success, -1 with errno set on failure, and
/// recv() == 0 means peer EOF. The loop is level-triggered, so a
/// wrapper may return short counts or spurious EAGAINs freely — epoll
/// re-fires until the real fd drains.
class SocketOps {
 public:
  virtual ~SocketOps() = default;

  /// accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK).
  [[nodiscard]] virtual int accept(int listen_fd) noexcept;

  /// recv(fd, buf, len, 0).
  [[nodiscard]] virtual ssize_t recv(int fd, char* buf,
                                     std::size_t len) noexcept;

  /// send(fd, buf, len, MSG_NOSIGNAL).
  [[nodiscard]] virtual ssize_t send(int fd, const char* buf,
                                     std::size_t len) noexcept;

  /// Scatter-gather send — the loop's reply-batching path (one call
  /// per connection per epoll wake). The real implementation is
  /// sendmsg(MSG_NOSIGNAL); the base-class default degrades to a
  /// single-segment send() so SocketOps mocks that only script send()
  /// keep working (the loop treats the result as a legal short write).
  [[nodiscard]] virtual ssize_t sendv(int fd, const struct iovec* iov,
                                      int iovcnt) noexcept;
};

/// The process-wide pass-through — what a null SocketOps* resolves to.
[[nodiscard]] SocketOps& real_socket_ops() noexcept;

/// The CPUs `TcpOptions::pin_shards` pins to: shard i gets the i-th
/// CPU (ascending) set in `allowed`, the process's sched_getaffinity
/// mask. Empty when `allowed` holds fewer than `shards` CPUs.
[[nodiscard]] std::vector<int> shard_cpus(const cpu_set_t& allowed,
                                          int shards);

struct TcpOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 7411;  ///< 0 = pick an ephemeral port
  int backlog = 128;
  /// Timeout of a parked shard's epoll_wait; bounds how fast it
  /// notices a stop request and how precisely idle timeouts fire.
  int poll_interval_ms = 100;
  /// Hard cap on concurrently open connections, divided across shards
  /// (shard i gets the remainder spread first); accepts beyond a
  /// shard's slice are answered with overloaded_body() and closed.
  std::size_t max_connections = 1024;
  /// Close a connection with no traffic and no pending responses for
  /// this long. 0 disables idle closing.
  int idle_timeout_ms = 0;
  /// Event-loop shard count. Clamped to [1, kMaxShards] and to
  /// max_connections (a shard with zero connection slots is useless).
  /// 1 reproduces the single-loop behavior exactly.
  int shards = 1;
  /// Use SO_REUSEPORT listeners (one per shard, kernel-balanced) when
  /// shards > 1. false — or a kernel without SO_REUSEPORT — selects
  /// the fallback: shard 0 accepts and hands fds to shards round-robin
  /// in accept order, which is deterministic and therefore what the
  /// cross-shard tests pin.
  bool use_reuseport = true;
  /// Pin shard i's loop thread to the i-th CPU of the process's
  /// affinity mask (shard_cpus(); shard 0 pins the thread that called
  /// run()), so pinning stays inside the set taskset or a cgroup cpuset
  /// allows. Each pin is logged to stderr. Off by default: pinning
  /// helps steady benchmark numbers on a quiet machine but fights the
  /// scheduler on a shared one. When the mask holds fewer CPUs than
  /// shards the request is logged and ignored (no-op, not an error).
  bool pin_shards = false;
  /// Once a stop is requested, how long shards keep flushing pending
  /// responses to peers that have stopped reading before force-closing
  /// them. Bounds shutdown against misbehaving clients. While
  /// stopping, the epoll timeout is clamped to the remaining grace so
  /// the deadline is honored even when poll_interval_ms exceeds it.
  int drain_grace_ms = 5000;
  /// Time source for idle sweeps and the stop-drain grace (null = the
  /// real steady clock). With a sim::SimClock, idle-timeout tests
  /// advance time instead of sleeping through it.
  const sim::ClockSource* clock = nullptr;
  /// Socket syscall seam (null = the real kernel API). Tests install a
  /// FaultyTransport (tests/support/fault.hpp) to script
  /// read/write/accept faults. With shards > 1 every shard thread calls
  /// it — use one shard or a per-thread wrapper
  /// (ShardedFaultyTransport) for scripted faults.
  SocketOps* socket_ops = nullptr;
};

class TcpListener {
 public:
  /// Upper bound on event-loop shards (also the Metrics per-shard
  /// counter array size).
  static constexpr int kMaxShards = 16;

  TcpListener(Server& server, TcpOptions options);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Binds and listens (non-blocking) — one socket per shard with
  /// SO_REUSEPORT, or a single acceptor socket in handoff mode.
  /// Returns false and fills `error` on failure; every fd created on a
  /// failed or repeated open is closed first (no leaks), so a caller
  /// may retry open() after fixing the options.
  [[nodiscard]] bool open(std::string* error);

  /// The bound port (useful when options.port was 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Shard count actually in effect after open()'s clamping.
  [[nodiscard]] int shard_count() const noexcept { return shards_; }

  /// True when open() established per-shard SO_REUSEPORT listeners;
  /// false in single-shard or acceptor-handoff mode.
  [[nodiscard]] bool reuseport_active() const noexcept { return reuseport_; }

  /// Event loop; runs until `stop` becomes true AND every admitted
  /// request has been answered and flushed (admitted work is never
  /// dropped; a peer that stops reading is force-closed after the
  /// drain grace). Call from exactly one thread; with shards > 1 the
  /// calling thread runs shard 0 and the remaining shards run on
  /// threads owned by this call, all joined before it returns.
  void run(const std::atomic<bool>& stop);

 private:
  /// Creates, configures, binds, and listens one socket on `port`
  /// (0 = ephemeral). Returns -1 with `error` filled on failure; never
  /// leaks the fd it created.
  [[nodiscard]] int open_socket(std::uint16_t port, bool reuseport,
                                std::string* error);

  void close_listeners() noexcept;
  void drop_partitions() noexcept;

  Server& server_;
  TcpOptions options_;
  std::vector<int> listen_fds_;
  /// Per-shard response-cache partitions (make_shard_partitions),
  /// created by open() and probed by the owning shard's loop thread.
  /// shared_ptr because Heavy jobs in the worker queue hold a reference
  /// for miss-fill after a shard force-closes its connections at
  /// shutdown.
  std::vector<std::shared_ptr<ShardedLruCache>> partitions_;
  std::uint16_t port_ = 0;
  int shards_ = 1;
  bool reuseport_ = false;
};

}  // namespace archline::serve
