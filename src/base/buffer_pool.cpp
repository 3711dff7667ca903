#include "sessmpi/base/buffer_pool.hpp"

#include <sys/mman.h>

#include <new>

namespace sessmpi::base {

namespace {

/// Blocks of kMapThreshold bytes and up are mapped straight from the OS, so
/// a block the pool does not keep leaves the process instead of a malloc
/// arena. The `used` bytes the caller asked for are populated in one call:
/// a page fault per 4 KiB page on first touch costs several times more on
/// the send and stripe-reassembly paths, which write every byte they ask
/// for. The rest of the block stays unbacked until touched.
void* allocate(std::size_t capacity, std::size_t used) {
  if (capacity < BufferPool::kMapThreshold) {
    return ::operator new(capacity);
  }
  void* block = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (block == MAP_FAILED) {
    throw std::bad_alloc();
  }
  ::madvise(block, used, MADV_POPULATE_WRITE);  // best effort
  return block;
}

void deallocate(void* block, std::size_t capacity) noexcept {
  if (capacity < BufferPool::kMapThreshold) {
    ::operator delete(block);
  } else {
    ::munmap(block, capacity);
  }
}

}  // namespace

BufferPool::~BufferPool() { trim(); }

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

std::size_t BufferPool::class_for(std::size_t bytes) noexcept {
  std::size_t cls = 0;
  std::size_t cap = kMinBlock;
  while (cls < kClasses && cap < bytes) {
    cap <<= 1;
    ++cls;
  }
  return cls;
}

void* BufferPool::acquire(std::size_t bytes, std::size_t* capacity) {
  const std::size_t cls = class_for(bytes);
  if (cls >= kClasses) {
    // Oversized: exact allocation, never cached.
    *capacity = bytes;
    misses_.fetch_add(1, std::memory_order_relaxed);
    return allocate(bytes, bytes);
  }
  *capacity = class_bytes(cls);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_[cls].empty()) {
      void* block = free_[cls].back();
      free_[cls].pop_back();
      cached_bytes_ -= class_bytes(cls);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return block;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return allocate(class_bytes(cls), bytes);
}

void BufferPool::release(void* block, std::size_t capacity) noexcept {
  releases_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cls = class_for(capacity);
  if (cls < kClasses && class_bytes(cls) == capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    if ((free_[cls].size() + 1) * capacity <= kMaxCachedBytesPerClass) {
      free_[cls].push_back(block);
      cached_bytes_ += capacity;
      return;
    }
  }
  deallocate(block, capacity);
}

BufferPool::Stats BufferPool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.releases = releases_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.cached_bytes = cached_bytes_;
  return s;
}

void BufferPool::trim() {
  std::vector<void*> lists[kClasses];
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t cls = 0; cls < kClasses; ++cls) {
      lists[cls].swap(free_[cls]);
    }
    cached_bytes_ = 0;
  }
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    for (void* block : lists[cls]) {
      deallocate(block, class_bytes(cls));
    }
  }
}

}  // namespace sessmpi::base
