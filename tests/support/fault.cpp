#include "support/fault.hpp"

#include <cerrno>

namespace archline::sim {

FaultyTransport::FaultyTransport(FaultScript script)
    : FaultyTransport(script, serve::real_socket_ops()) {}

FaultyTransport::FaultyTransport(FaultScript script, serve::SocketOps& inner)
    : script_(script), inner_(inner), rng_(script.seed) {}

bool FaultyTransport::roll(double p) noexcept {
  if (p <= 0.0) return false;
  return rng_.uniform() < p;
}

std::size_t FaultyTransport::maybe_cut(
    std::size_t len, double p, std::atomic<std::uint64_t>& hit) noexcept {
  if (script_.max_chunk > 0 && len > script_.max_chunk)
    len = script_.max_chunk;
  if (len > 1 && roll(p)) {
    hit.fetch_add(1, std::memory_order_relaxed);
    len = 1 + static_cast<std::size_t>(rng_.below(len - 1));
  }
  return len;
}

int FaultyTransport::accept(int listen_fd) noexcept {
  counters_.accept_calls.fetch_add(1, std::memory_order_relaxed);
  if (roll(script_.accept_fail)) {
    counters_.accept_failures.fetch_add(1, std::memory_order_relaxed);
    errno = EMFILE;
    return -1;
  }
  return inner_.accept(listen_fd);
}

ssize_t FaultyTransport::recv(int fd, char* buf, std::size_t len) noexcept {
  counters_.recv_calls.fetch_add(1, std::memory_order_relaxed);
  if (roll(script_.reset)) {
    counters_.resets.fetch_add(1, std::memory_order_relaxed);
    errno = ECONNRESET;
    return -1;
  }
  if (roll(script_.eagain)) {
    counters_.eagains.fetch_add(1, std::memory_order_relaxed);
    errno = EAGAIN;
    return -1;
  }
  return inner_.recv(
      fd, buf, maybe_cut(len, script_.split_read, counters_.split_reads));
}

ssize_t FaultyTransport::send(int fd, const char* buf,
                              std::size_t len) noexcept {
  counters_.send_calls.fetch_add(1, std::memory_order_relaxed);
  if (roll(script_.reset)) {
    counters_.resets.fetch_add(1, std::memory_order_relaxed);
    errno = ECONNRESET;
    return -1;
  }
  if (roll(script_.eagain)) {
    counters_.eagains.fetch_add(1, std::memory_order_relaxed);
    errno = EAGAIN;
    return -1;
  }
  return inner_.send(
      fd, buf, maybe_cut(len, script_.short_write, counters_.short_writes));
}

ssize_t FaultyTransport::sendv(int fd, const struct iovec* iov,
                               int iovcnt) noexcept {
  counters_.send_calls.fetch_add(1, std::memory_order_relaxed);
  if (roll(script_.reset)) {
    counters_.resets.fetch_add(1, std::memory_order_relaxed);
    errno = ECONNRESET;
    return -1;
  }
  if (roll(script_.eagain)) {
    counters_.eagains.fetch_add(1, std::memory_order_relaxed);
    errno = EAGAIN;
    return -1;
  }
  std::size_t total = 0;
  for (int i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  if (total == 0) return 0;
  const std::size_t allowed =
      maybe_cut(total, script_.short_write, counters_.short_writes);
  if (allowed == total) return inner_.sendv(fd, iov, iovcnt);
  // Trim the gather list to `allowed` bytes: the cut can land inside a
  // reply body or exactly between two batched replies — both are
  // offsets the kernel could stop at.
  std::vector<struct iovec> trimmed;
  trimmed.reserve(static_cast<std::size_t>(iovcnt));
  std::size_t remaining = allowed;
  for (int i = 0; i < iovcnt && remaining > 0; ++i) {
    struct iovec seg = iov[i];
    if (seg.iov_len > remaining) seg.iov_len = remaining;
    remaining -= seg.iov_len;
    if (seg.iov_len > 0) trimmed.push_back(seg);
  }
  return inner_.sendv(fd, trimmed.data(),
                      static_cast<int>(trimmed.size()));
}

// ---- ShardedFaultyTransport ----------------------------------------------

ShardedFaultyTransport::ShardedFaultyTransport(FaultScript script)
    : ShardedFaultyTransport(script, serve::real_socket_ops()) {}

ShardedFaultyTransport::ShardedFaultyTransport(FaultScript script,
                                               serve::SocketOps& inner)
    : script_(script), inner_(inner) {}

FaultyTransport& ShardedFaultyTransport::child() noexcept {
  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, transport] : children_)
    if (id == me) return *transport;
  FaultScript script = script_;
  script.seed = script_.seed + children_.size() * 1000003u;
  children_.emplace_back(me,
                         std::make_unique<FaultyTransport>(script, inner_));
  return *children_.back().second;
}

int ShardedFaultyTransport::accept(int listen_fd) noexcept {
  return child().accept(listen_fd);
}

ssize_t ShardedFaultyTransport::recv(int fd, char* buf,
                                     std::size_t len) noexcept {
  return child().recv(fd, buf, len);
}

ssize_t ShardedFaultyTransport::send(int fd, const char* buf,
                                     std::size_t len) noexcept {
  return child().send(fd, buf, len);
}

ssize_t ShardedFaultyTransport::sendv(int fd, const struct iovec* iov,
                                      int iovcnt) noexcept {
  return child().sendv(fd, iov, iovcnt);
}

ShardedFaultyTransport::Totals ShardedFaultyTransport::totals() const {
  Totals t;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, transport] : children_) {
    const FaultCounters& c = transport->counters();
    t.recv_calls += c.recv_calls.load(std::memory_order_relaxed);
    t.send_calls += c.send_calls.load(std::memory_order_relaxed);
    t.accept_calls += c.accept_calls.load(std::memory_order_relaxed);
    t.split_reads += c.split_reads.load(std::memory_order_relaxed);
    t.short_writes += c.short_writes.load(std::memory_order_relaxed);
    t.eagains += c.eagains.load(std::memory_order_relaxed);
    t.resets += c.resets.load(std::memory_order_relaxed);
    t.accept_failures += c.accept_failures.load(std::memory_order_relaxed);
  }
  return t;
}

std::size_t ShardedFaultyTransport::thread_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return children_.size();
}

}  // namespace archline::sim
