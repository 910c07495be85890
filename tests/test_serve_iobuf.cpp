// ConsumableBuffer: the cursor/lazy-compaction contract behind the
// O(n²)-erase fix in the TCP loop's per-connection buffers. The
// pointer-stability assertions here are the regression pins: the old
// erase(0, n)-per-consume implementation moves the tail on every call
// and fails them.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>

#include "serve/iobuf.hpp"

namespace {

using archline::serve::ConsumableBuffer;

TEST(ConsumableBuffer, PreservesByteStreamAcrossInterleavedAppendsConsumes) {
  ConsumableBuffer buf;
  std::string expected;
  std::string got;
  // Deterministic interleaving: append i bytes, consume roughly half of
  // what is buffered, repeat. Everything consumed must come out in
  // order, and the final drain must produce the rest.
  unsigned x = 12345;
  for (int round = 0; round < 200; ++round) {
    x = x * 1664525u + 1013904223u;
    const std::size_t add = 1 + (x >> 16) % 97;
    std::string chunk;
    for (std::size_t i = 0; i < add; ++i)
      chunk.push_back(static_cast<char>('a' + (expected.size() + i) % 26));
    expected += chunk;
    buf.append(chunk);
    const std::size_t take = buf.size() / 2;
    got.append(buf.data(), take);
    buf.consume(take);
  }
  got.append(buf.data(), buf.size());
  buf.consume(buf.size());
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.dead_prefix(), 0u);
}

TEST(ConsumableBuffer, SmallConsumesAreCursorBumpsNotMoves) {
  ConsumableBuffer buf;
  const std::string payload(ConsumableBuffer::kCompactBytes - 1, 'x');
  buf.append(payload);
  const char* base = buf.data();
  // Consume the whole payload one byte at a time, staying below the
  // compaction threshold: the data pointer must advance by exactly one
  // per consume — the erase(0, 1) implementation would keep it fixed
  // (and memmove the tail 4095 times).
  for (std::size_t i = 0; i + 1 < payload.size(); ++i) {
    buf.consume(1);
    ASSERT_EQ(buf.data(), base + i + 1) << "tail was moved at byte " << i;
    ASSERT_EQ(buf.dead_prefix(), i + 1);
  }
  buf.consume(1);
  EXPECT_TRUE(buf.empty());
}

TEST(ConsumableBuffer, CompactsOnceThresholdAndHalfAllocationCrossed) {
  ConsumableBuffer buf;
  // 6 KiB live; consume 4 KiB: threshold met AND dead >= half => compact.
  buf.append(std::string(6144, 'a'));
  buf.consume(ConsumableBuffer::kCompactBytes);
  EXPECT_EQ(buf.dead_prefix(), 0u);
  EXPECT_EQ(buf.size(), 6144u - ConsumableBuffer::kCompactBytes);

  // 64 KiB live; consume 4 KiB: threshold met but dead < half => lazy.
  buf.clear();
  buf.append(std::string(65536, 'b'));
  buf.consume(ConsumableBuffer::kCompactBytes);
  EXPECT_EQ(buf.dead_prefix(), ConsumableBuffer::kCompactBytes);
  EXPECT_EQ(buf.size(), 65536u - ConsumableBuffer::kCompactBytes);
}

TEST(ConsumableBuffer, FullDrainResetsCursorAndKeepsNothingDead) {
  ConsumableBuffer buf;
  buf.append("hello");
  buf.consume(5);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.dead_prefix(), 0u);
  buf.append("world");
  EXPECT_EQ(std::string(buf.data(), buf.size()), "world");
}

// A 1 MiB line arrives the way TCP reads it, in 64 KiB chunks, and is
// consumed whole: the drained buffer frees that peak allocation instead
// of holding it for the connection's life. A buffer that never grew
// past one read chunk keeps its allocation across drains.
TEST(ConsumableBuffer, FullDrainFreesCapacityAboveOneReadChunk) {
  ConsumableBuffer buf;
  const std::string chunk(ConsumableBuffer::kReadChunkBytes, 'x');
  for (int i = 0; i < 16; ++i) buf.append(chunk);
  buf.push_back('\n');
  ASSERT_GT(buf.capacity(), std::size_t{1} << 20);
  buf.consume(buf.size());
  EXPECT_TRUE(buf.empty());
  EXPECT_LE(buf.capacity(), ConsumableBuffer::kReadChunkBytes);

  buf.append(chunk);
  buf.append(std::string(ConsumableBuffer::kReadChunkBytes, 'y'));
  buf.clear();
  EXPECT_LE(buf.capacity(), ConsumableBuffer::kReadChunkBytes);

  buf.append(std::string(1000, 'z'));
  const std::size_t small = buf.capacity();
  const char* storage = buf.data();
  buf.consume(1000);
  buf.append(std::string(1000, 'w'));
  EXPECT_EQ(buf.capacity(), small);
  EXPECT_EQ(buf.data(), storage);  // no reallocation
}

TEST(ConsumableBuffer, AdoptTakesOwnershipWhenEmptyAppendsOtherwise) {
  ConsumableBuffer buf;
  std::string body(1024, 'z');
  const char* body_data = body.data();
  buf.adopt_or_append(std::move(body));
  // Moved, not copied: the buffer now reads from the donated storage.
  EXPECT_EQ(buf.data(), body_data);
  EXPECT_EQ(buf.size(), 1024u);

  std::string more = "tail";
  buf.adopt_or_append(std::move(more));
  EXPECT_EQ(buf.size(), 1028u);
  EXPECT_EQ(std::string(buf.data() + 1024, 4), "tail");
}

TEST(ConsumableBuffer, ViewTracksCursor) {
  ConsumableBuffer buf;
  buf.append("abc\ndef\n");
  EXPECT_EQ(buf.view().find('\n'), 3u);
  buf.consume(4);
  EXPECT_EQ(buf.view(), "def\n");
  EXPECT_EQ(buf.view().find('\n'), 3u);
}

// The amortized-cost claim, checked as work actually done: total bytes
// moved by compaction across a long drip-feed session must be O(bytes
// appended), not O(n²). With erase-per-consume, draining 2 MiB one
// 64-byte line at a time moves ~32 GiB; here it moves < 2x the stream.
TEST(ConsumableBuffer, DripFeedDoesBoundedWork) {
  ConsumableBuffer buf;
  const std::string line(63, 'q');
  std::size_t appended = 0;
  // Keep ~1 MiB resident so consume() can't take the cheap full-drain
  // path; push 32 MiB through in 64-byte lines. O(n²) behavior here is
  // ~minutes of memmove; the lazy cursor finishes instantly. (A loose
  // wall-clock guard, generous for sanitized builds, still separates
  // seconds from minutes.)
  buf.append(std::string(1 << 20, 'r'));
  const auto started = std::chrono::steady_clock::now();
  while (appended < (32u << 20)) {
    buf.append(line);
    buf.push_back('\n');
    appended += line.size() + 1;
    buf.consume(line.size() + 1);
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
          .count();
  EXPECT_LT(elapsed, 30.0) << "front-consume is doing quadratic work";
  EXPECT_EQ(buf.size(), 1u << 20);
}

}  // namespace
