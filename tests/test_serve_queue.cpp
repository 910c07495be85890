// BoundedQueue tests: bounded admission, FIFO pops with post-pop
// depth, the non-blocking try_pop, drain-after-close, reopen, and a multi-producer /
// multi-consumer stress over the waiter-gated wake path.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <optional>
#include <thread>
#include <vector>

#include "serve/queue.hpp"

namespace {

using archline::serve::BoundedQueue;

TEST(ServeQueue, TryPushReportsDepthAndBackpressure) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.capacity(), 2u);
  std::size_t depth = 0;
  const auto record = [&depth](std::size_t d) { depth = d; };
  ASSERT_TRUE(q.try_push(1, record));
  EXPECT_EQ(depth, 1u);
  ASSERT_TRUE(q.try_push(2, record));
  EXPECT_EQ(depth, 2u);
  EXPECT_FALSE(q.try_push(3));  // full: rejected, never blocks
  EXPECT_EQ(q.size(), 2u);
}

TEST(ServeQueue, DisabledLaneRejectsEveryPush) {
  BoundedQueue<int> q(0);
  EXPECT_FALSE(q.try_push(1));
  EXPECT_EQ(q.size(), 0u);
}

TEST(ServeQueue, PopTakesItemsInFifoOrder) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.try_push(i));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(q.pop(), i);
  EXPECT_EQ(q.size(), 0u);
}

TEST(ServeQueue, PopReportsPostPopDepth) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 7; ++i) ASSERT_TRUE(q.try_push(i));
  std::size_t depth = 99;
  ASSERT_TRUE(q.pop([&depth](std::size_t d) { depth = d; }).has_value());
  EXPECT_EQ(depth, 6u);  // 7 pushed - 1 taken
}

TEST(ServeQueue, TryPopNeverBlocks) {
  BoundedQueue<int> q(16);
  EXPECT_FALSE(q.try_pop().has_value());  // empty and open: no wait
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(q.try_push(i));
  std::size_t depth = 99;
  EXPECT_EQ(q.try_pop([&depth](std::size_t d) { depth = d; }), 0);
  EXPECT_EQ(depth, 2u);
  q.close();  // closed items still drain, in order
  EXPECT_EQ(q.try_pop(), 1);
  EXPECT_EQ(q.try_pop(), 2);
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(ServeQueue, DrainAfterCloseWithBatches) {
  BoundedQueue<int> q(16);
  for (int i = 0; i < 9; ++i) ASSERT_TRUE(q.try_push(i));
  q.close();
  EXPECT_FALSE(q.try_push(99));  // closed: no new admissions
  // The batch admitted before close() still drains, in order...
  for (int i = 0; i < 9; ++i) EXPECT_EQ(q.pop(), i);
  // ...and only then does pop report "closed and empty".
  EXPECT_FALSE(q.pop().has_value());
}

TEST(ServeQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(16);
  std::atomic<int> exited{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i)
    consumers.emplace_back([&] {
      while (q.pop()) {
      }
      exited.fetch_add(1);
    });
  q.close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(exited.load(), 3);
}

TEST(ServeQueue, MpmcBatchesDeliverEveryItemExactlyOnce) {
  // 4 producers pushing in bursts x 4 consumers through a small queue:
  // exercises the waiter-gated notify_one under real contention. Sum
  // check catches both lost and duplicated items.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  BoundedQueue<long> q(16);
  std::atomic<long> sum{0};
  std::atomic<long> count{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c)
    consumers.emplace_back([&] {
      long local_sum = 0, local_count = 0;
      while (const std::optional<long> v = q.pop()) {
        ++local_count;
        local_sum += *v;
      }
      sum.fetch_add(local_sum);
      count.fetch_add(local_count);
    });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p)
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const long value = static_cast<long>(p) * kPerProducer + i;
        while (!q.try_push(value)) std::this_thread::yield();
      }
    });
  for (auto& t : producers) t.join();
  q.close();  // consumers drain what is left, then exit
  for (auto& t : consumers) t.join();

  const long total = static_cast<long>(kProducers) * kPerProducer;
  EXPECT_EQ(count.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

TEST(ServeQueue, DepthReportsArriveInQueueOrder) {
  // Regression: the depth of a push was reported after try_push had
  // released the lock and woken a consumer, so the consumer's newer
  // report (0) could land first and leave the gauge at 1 over an empty
  // queue for good. Each round hands one item to a blocked consumer;
  // once it is popped, the last report must be 0.
  BoundedQueue<int> q(1);
  std::atomic<std::size_t> gauge{0};
  const auto publish = [&gauge](std::size_t d) {
    gauge.store(d, std::memory_order_relaxed);
  };
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    while (q.pop(publish)) popped.fetch_add(1, std::memory_order_release);
  });
  constexpr int kRounds = 2000;
  int stale = 0;
  for (int i = 0; i < kRounds; ++i) {
    ASSERT_TRUE(q.try_push(i, publish));
    while (popped.load(std::memory_order_acquire) <= i)
      std::this_thread::yield();
    if (gauge.load(std::memory_order_relaxed) != 0) ++stale;
  }
  q.close();
  consumer.join();
  EXPECT_EQ(stale, 0);
}

TEST(ServeQueue, ReopenAfterCloseAdmitsAgain) {
  BoundedQueue<int> q(4);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.try_push(1));
  q.reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.try_push(1));
  EXPECT_EQ(q.pop(), 1);
}

}  // namespace
