#pragma once
// serve::ShardCore — one transport shard's connection state machine,
// with no I/O: admission against the shard's slice of the connection
// cap, framing (a final un-terminated line is answered at EOF, an
// over-long residual with "too_large"), Server::serve_inline or
// Server::enqueue per line, in-order release through a per-connection
// OrderedWriter, the outbound buffers, idle expiry, and half-close on
// stop. Drivers feed it (admit, bytes received, EOF, Heavy completions,
// bytes sent at a clock reading, stop) and act on its outputs (iovecs
// to send, finished and expired connections, expiry instants). The
// epoll loop in serve/tcp.cpp drives it over sockets; sim::Campaign
// drives it in virtual time. Workers push Heavy replies into its
// completion channel, the one internally locked, cross-thread door;
// everything else belongs to the thread that drives the core.

#include <sys/uio.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "serve/cache.hpp"
#include "serve/iobuf.hpp"
#include "serve/server.hpp"

namespace archline::serve {

/// Lock stripes of each shard's cache partition, whatever --cache-shards
/// says (that stripes only the server's own partition); each stripe's
/// LRU bound is the partition's capacity over this count.
inline constexpr std::size_t kPartitionStripes = 4;

/// One cache partition per shard, an equal slice (at least 1) of the
/// server's cache_capacity in kPartitionStripes stripes, registered so
/// cache_stats() sums it; with caching off, the server's own partition.
[[nodiscard]] std::vector<std::shared_ptr<ShardedLruCache>>
make_shard_partitions(Server& server, int shards);

class ShardCore {
 public:
  using Clock = std::chrono::steady_clock;
  using ConnId = std::uint64_t;

  /// Most segments gather() fills: 2 per reply, far under IOV_MAX.
  static constexpr int kMaxIov = 64;

  /// One connection. `submitted` counts requests taken from the wire,
  /// `written` replies framed for sending. Outbound bytes go `out`
  /// first (partially-sent residue and copied inline replies), then
  /// `pending` (whole reply bodies, moved in; gather() adds newlines).
  struct Conn {
    ConnId id = 0;
    OrderedWriter writer;
    ConsumableBuffer in;   ///< residual partial line (no newline yet)
    ConsumableBuffer out;
    std::vector<std::string> pending;
    std::size_t pending_next = 0;  ///< first un-sent index in pending
    std::uint64_t submitted = 0;
    std::uint64_t written = 0;
    bool half_closed = false;  ///< no more reads: EOF, too_large, stop
    Clock::time_point last_activity;
  };

  /// A Heavy reply a worker finished for connection `conn`.
  struct Completion {
    ConnId conn = 0;
    std::uint64_t seq = 0;  ///< its place in the connection's order
    std::string body;
  };

  /// Called under the channel lock, on the worker's thread, after each
  /// push: the driver's wake-up (an eventfd write).
  using Wake = void (*)(void* arg);
  /// Called once per request line taken off the wire, after it ran:
  /// how it was served and its reply (empty for a Heavy miss the queue
  /// took). A too_large residual reports as Evaluated.
  using Observer = void (*)(void* arg, Server::Inline how,
                            std::string_view reply);

  /// Admits this shard's slice of `max_connections` (cap / shards, the
  /// remainder to the first shards). idle_timeout_ms 0: no expiry.
  ShardCore(Server& server, std::shared_ptr<ShardedLruCache> cache,
            int shard, int shard_count, std::size_t max_connections,
            int idle_timeout_ms);

  ShardCore(const ShardCore&) = delete;
  ShardCore& operator=(const ShardCore&) = delete;

  /// Null `wake` stops wake-ups (the driver's target is going away).
  void set_wake(Wake wake, void* arg);
  void set_observer(Observer observer, void* arg) noexcept {
    observer_ = observer;
    observer_arg_ = arg;
  }

  // ---- inputs ----

  /// A connection under the driver's unique `id`, or null when the
  /// slice is full (counted; the driver answers overloaded_body()).
  [[nodiscard]] Conn* admit(ConnId id, Clock::time_point now);
  /// Serves every complete line; a residual over the line limit is
  /// answered "too_large" and reading stops.
  void receive(Conn& c, std::string_view bytes, Clock::time_point now);
  /// Peer EOF: a final un-terminated line is still served.
  void receive_eof(Conn& c, Clock::time_point now);
  /// Replaces `out` with the completions pushed since the last call.
  void take_completions(std::vector<Completion>& out);
  /// Frames a completion in order; null when its connection is gone.
  Conn* complete(Completion&& done);
  /// `n` bytes of gather()'s segments left at `sent_at`, read BEFORE
  /// the send: once bytes are out the peer may advance a SimClock, and
  /// a later stamp would keep the connection fresh forever.
  void sent(Conn& c, std::size_t n, Clock::time_point sent_at);
  /// Half-closes every connection; each closes once finished().
  void stop() noexcept;
  void close(Conn& c, bool idle_timeout = false);

  // ---- outputs ----

  /// Fills `iov` (kMaxIov slots) with the next outbound segments.
  [[nodiscard]] static int gather(Conn& c, iovec* iov) noexcept;
  [[nodiscard]] static bool has_outbound(const Conn& c) noexcept {
    return !c.out.empty() || c.pending_next < c.pending.size();
  }
  /// Nothing can arrive or leave again: the driver closes it.
  [[nodiscard]] static bool finished(const Conn& c) noexcept {
    return c.half_closed && c.written == c.submitted && !has_outbound(c);
  }
  /// The first instant `c` counts as idle past the timeout if nothing
  /// happens; time_point::max() while a reply is owed or unsent.
  [[nodiscard]] Clock::time_point expiry(const Conn& c) const noexcept;
  [[nodiscard]] bool expired(const Conn& c, Clock::time_point now) const
      noexcept {
    return now >= expiry(c);
  }
  void collect_expired(Clock::time_point now, std::vector<ConnId>& out) const;
  [[nodiscard]] Conn* find(ConnId id) noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return conns_.size(); }

 private:
  struct Channel;

  /// Submits every complete line in `buf`; returns the bytes used.
  std::size_t submit_lines(Conn& c, std::string_view buf);
  void submit_line(Conn& c, std::string_view line);
  void consume_outbound(Conn& c, std::size_t n);
  void observe(Server::Inline how, std::string_view reply) {
    if (observer_) observer_(observer_arg_, how, reply);
  }

  Server& server_;
  Metrics& metrics_;
  const std::shared_ptr<ShardedLruCache> cache_;  ///< never null
  const std::size_t shard_;
  const std::size_t max_conns_;
  const std::size_t max_line_;
  const Clock::duration idle_limit_;  ///< zero: no idle expiry
  /// Shared with queued Heavy jobs, which may outlive the core.
  const std::shared_ptr<Channel> channel_;
  std::unordered_map<ConnId, Conn> conns_;
  std::string scratch_;  ///< inline reply buffer (capacity reused)
  Observer observer_ = nullptr;
  void* observer_arg_ = nullptr;
};

}  // namespace archline::serve
