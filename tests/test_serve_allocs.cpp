// Heap allocations on the serve hot path, counted: a warmed cache hit
// (predict and policy_advise) allocates nothing, and the in-situ parse
// of a predict line allocates once. docs/SERVER.md ("Performance")
// states these figures. The binary replaces the global operator new with
// a counting one, so it counts every allocation the process makes.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sim/request_pools.hpp"

namespace {
// Relaxed: the count only needs to be right, not ordered.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) & ~(align - 1)))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
// Not inlined: GCC would otherwise pair an inlined free() with the
// `new` expression at the call site and warn -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace archline;

/// Allocations `f` makes.
template <typename F>
std::uint64_t allocations(F&& f) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  f();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// Allocations of one pass of handle_into over a warmed pool, after a
/// first pass has grown the reply buffer to its largest reply.
std::uint64_t warmed_hit_allocations(const std::vector<std::string>& pool) {
  serve::Server server;
  for (const std::string& line : pool) (void)server.handle_now(line);
  std::string out;
  for (const std::string& line : pool) server.handle_into(line, out);
  const std::uint64_t n = allocations([&] {
    for (const std::string& line : pool) server.handle_into(line, out);
  });
  EXPECT_EQ(server.cache_stats().misses, pool.size());
  return n;
}

TEST(ServeAllocs, WarmedPredictHitAllocatesNothing) {
  EXPECT_EQ(warmed_hit_allocations(sim::make_predict_pool(64)), 0u);
}

TEST(ServeAllocs, WarmedPolicyAdviseHitAllocatesNothing) {
  EXPECT_EQ(warmed_hit_allocations(sim::make_policy_pool()), 0u);
}

TEST(ServeAllocs, InSituParseOfAPredictLineAllocatesOnce) {
  for (const std::string& line : sim::make_predict_pool(64)) {
    bool object = false;
    EXPECT_EQ(allocations([&] {
                object = serve::Json::parse_in_situ(line).type() ==
                         serve::Json::Type::Object;
              }),
              1u)
        << line;
    EXPECT_TRUE(object);
  }
}

}  // namespace
