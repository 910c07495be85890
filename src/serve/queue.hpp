#pragma once
// BoundedQueue — the worker pool's one bounded MPMC FIFO.
//
// Only Heavy cache misses wait here (see serve/server.hpp): Light
// requests finish on the thread that framed them, so the queue holds
// nothing but multi-millisecond work (fit, refit, scenario_sweep, large
// predict_batch). Admission control is the bound: try_push fails when
// the queue is full or closed, and the caller answers "overloaded".
//
// Every consumer can run every item, so a push wakes at most one
// sleeper (notify_one, and only when someone sleeps), and close() wakes
// them all. Items queued before close() stay poppable: pop() returns
// nullopt only once the queue is closed AND empty, which is what lets
// Server::shutdown drain admitted work.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace archline::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Callback type for callers that do not track the depth.
  struct IgnoreDepth {
    void operator()(std::size_t) const noexcept {}
  };

  /// Enqueues unless the queue is full or closed; never blocks. On
  /// success calls on_depth(resulting depth) before the lock is
  /// released, so every push's and pop's depth report arrives in queue
  /// order and the last one is the true depth (a report made after the
  /// unlock could land after a consumer's newer one).
  template <typename OnDepth = IgnoreDepth>
  [[nodiscard]] bool try_push(T item, OnDepth&& on_depth = {}) {
    bool wake;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      on_depth(items_.size());
      wake = waiters_ > 0;
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and
  /// drained; nullopt means "closed and empty" (the consumer exits). On
  /// success calls on_depth(post-pop depth) under the lock.
  template <typename OnDepth = IgnoreDepth>
  [[nodiscard]] std::optional<T> pop(OnDepth&& on_depth = {}) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++waiters_;
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    --waiters_;
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    on_depth(items_.size());
    return item;
  }

  /// Pops without blocking; nullopt when the queue is empty, closed or
  /// not. On success calls on_depth(post-pop depth) under the lock.
  template <typename OnDepth = IgnoreDepth>
  [[nodiscard]] std::optional<T> try_pop(OnDepth&& on_depth = {}) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (items_.empty()) return std::nullopt;
    std::optional<T> item(std::move(items_.front()));
    items_.pop_front();
    on_depth(items_.size());
    return item;
  }

  /// Rejects future pushes and wakes all blocked consumers. Items
  /// already queued remain poppable (drain semantics).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  /// Re-admits pushes after close(); what makes Server restartable.
  void reopen() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  std::size_t waiters_ = 0;
  bool closed_ = false;
};

}  // namespace archline::serve
