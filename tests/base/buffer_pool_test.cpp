#include "sessmpi/base/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace sessmpi::base {
namespace {

/// Acquires `n` blocks of `bytes` each, touching every one, then releases
/// them all; returns the capacity the pool handed out.
std::size_t churn(BufferPool& pool, std::size_t bytes, std::size_t n) {
  std::vector<void*> blocks;
  std::size_t capacity = 0;
  for (std::size_t i = 0; i < n; ++i) {
    void* b = pool.acquire(bytes, &capacity);
    std::memset(b, 0xA5, capacity);
    blocks.push_back(b);
  }
  for (void* b : blocks) {
    pool.release(b, capacity);
  }
  return capacity;
}

TEST(BufferPool, ReleasedBlockIsHitOnNextAcquire) {
  BufferPool pool;
  std::size_t cap = 0;
  void* a = pool.acquire(100, &cap);
  EXPECT_EQ(cap, 128u);
  EXPECT_EQ(pool.stats().misses, 1u);
  pool.release(a, cap);
  EXPECT_EQ(pool.stats().cached_bytes, 128u);

  std::size_t cap2 = 0;
  void* b = pool.acquire(120, &cap2);
  EXPECT_EQ(b, a);
  EXPECT_EQ(cap2, cap);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  pool.release(b, cap2);
}

TEST(BufferPool, MappedClassBlockIsReusedToo) {
  // A 64 KiB payload plus its header lands in the 128 KiB class, which is
  // mapped from the OS rather than malloc'd; it still recycles.
  BufferPool pool;
  std::size_t cap = 0;
  void* a = pool.acquire((64u << 10) + 16, &cap);
  EXPECT_EQ(cap, 128u << 10);
  std::memset(a, 1, cap);
  pool.release(a, cap);
  std::size_t cap2 = 0;
  void* b = pool.acquire(cap, &cap2);
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.stats().hits, 1u);
  pool.release(b, cap2);
}

TEST(BufferPool, EachClassHonoursTheByteCap) {
  BufferPool pool;
  for (const std::size_t bytes : {std::size_t{64}, std::size_t{4} << 10,
                                  std::size_t{128} << 10,
                                  BufferPool::kMaxBlock}) {
    const std::size_t before = pool.stats().cached_bytes;
    const std::size_t n = BufferPool::kMaxCachedBytesPerClass / bytes + 8;
    const std::size_t cap = churn(pool, bytes, n);
    EXPECT_EQ(cap, bytes);
    EXPECT_EQ(pool.stats().cached_bytes - before,
              BufferPool::kMaxCachedBytesPerClass)
        << bytes << "-byte class";
  }
  // The cap holds across repeated bursts: nothing accumulates past it.
  const std::size_t full = pool.stats().cached_bytes;
  churn(pool, std::size_t{128} << 10, 64);
  EXPECT_EQ(pool.stats().cached_bytes, full);
}

TEST(BufferPool, TrimEmptiesEveryClass) {
  BufferPool pool;
  for (std::size_t bytes = BufferPool::kMinBlock;
       bytes <= BufferPool::kMaxBlock; bytes <<= 1) {
    churn(pool, bytes, 2);
  }
  EXPECT_EQ(pool.stats().cached_bytes,
            2 * (2 * BufferPool::kMaxBlock - BufferPool::kMinBlock));
  pool.trim();
  EXPECT_EQ(pool.stats().cached_bytes, 0u);

  // Every class misses again after the trim.
  const std::uint64_t misses = pool.stats().misses;
  std::size_t classes = 0;
  for (std::size_t bytes = BufferPool::kMinBlock;
       bytes <= BufferPool::kMaxBlock; bytes <<= 1, ++classes) {
    churn(pool, bytes, 1);
  }
  EXPECT_EQ(classes, BufferPool::kClasses);
  EXPECT_EQ(pool.stats().misses - misses, BufferPool::kClasses);
}

TEST(BufferPool, OversizedBlocksAreNeverCached) {
  BufferPool pool;
  const std::size_t bytes = BufferPool::kMaxBlock + 1;
  EXPECT_EQ(churn(pool, bytes, 3), bytes);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
  churn(pool, bytes, 1);
  EXPECT_EQ(pool.stats().hits, 0u);
  EXPECT_EQ(pool.stats().misses, 4u);
  EXPECT_EQ(pool.stats().releases, 4u);
}

}  // namespace
}  // namespace sessmpi::base
