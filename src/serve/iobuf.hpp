#pragma once
// ConsumableBuffer — an append-at-back / consume-at-front byte buffer
// with an explicit read cursor and *lazy* compaction.
//
// The TCP event loop's per-connection buffers consume from the front:
// the parser eats framed lines off `in`, and flush() eats sent bytes
// off `out`. A std::string with erase(0, n) does that in O(bytes
// remaining) per call — O(n²) total against a drip-feeding sender or a
// slow reader taking the data a few bytes at a time. This buffer makes
// consume(n) a cursor bump (O(1)) and only memmoves the live tail when
// the dead prefix is both large in absolute terms (>= kCompactBytes)
// and at least half the allocation — so compaction cost is amortized
// O(1) per byte ever appended, and memory is still reclaimed when a
// buffer drains past the threshold. A buffer that drains fully with more
// than one read chunk of capacity frees it: one long line does not pin
// its peak allocation for the rest of the connection's life.
//
// Single-threaded by design, like the connection state it lives in.

#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>

namespace archline::serve {

class ConsumableBuffer {
 public:
  /// Dead-prefix size below which consume() never compacts. Large
  /// enough that per-line parsing of normal traffic never memmoves;
  /// small enough that a drained multi-megabyte burst gives its pages
  /// back promptly.
  static constexpr std::size_t kCompactBytes = 4096;

  /// One socket read (the TCP shard loop's recv size). A fully drained
  /// buffer keeps at most this much capacity, so small-line traffic
  /// reuses its allocation and a long line's is freed.
  static constexpr std::size_t kReadChunkBytes = 65536;

  void append(const char* data, std::size_t n) { buf_.append(data, n); }
  void append(std::string_view s) { buf_.append(s); }
  void push_back(char c) { buf_.push_back(c); }

  /// Donates an entire string (move) when the buffer is empty —
  /// otherwise appends. Lets callers hand over a framed body without a
  /// copy in the common drained state.
  void adopt_or_append(std::string&& s) {
    if (buf_.empty()) {
      buf_ = std::move(s);
      off_ = 0;
    } else {
      buf_.append(s);
    }
  }

  [[nodiscard]] const char* data() const noexcept {
    return buf_.data() + off_;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return buf_.size() - off_;
  }
  [[nodiscard]] bool empty() const noexcept { return off_ == buf_.size(); }
  [[nodiscard]] std::string_view view() const noexcept {
    return std::string_view(buf_).substr(off_);
  }

  /// Bytes consumed but not yet compacted away (the dead prefix).
  /// Observable so tests can pin the laziness contract.
  [[nodiscard]] std::size_t dead_prefix() const noexcept { return off_; }

  /// Drops n bytes from the front. O(1) unless the compaction threshold
  /// is crossed; never invalidates more than it must — data() advances
  /// by exactly n when no compaction happens.
  void consume(std::size_t n) {
    off_ += n;
    if (off_ == buf_.size()) {
      clear();
      return;
    }
    if (off_ >= kCompactBytes && off_ * 2 >= buf_.size()) {
      buf_.erase(0, off_);
      off_ = 0;
    }
  }

  /// Empties the buffer: keeps up to kReadChunkBytes of capacity, frees
  /// a larger one.
  void clear() noexcept {
    if (buf_.capacity() > kReadChunkBytes)
      std::string().swap(buf_);
    else
      buf_.clear();
    off_ = 0;
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return buf_.capacity();
  }

 private:
  std::string buf_;
  std::size_t off_ = 0;  ///< read cursor: buf_[0, off_) is consumed
};

}  // namespace archline::serve
