#pragma once

// Slab allocator for message payload buffers.
//
// Payload allocation used to be a `std::vector<std::byte>` per packet — one
// heap malloc/free per message on the eager path, plus full deep copies into
// the retransmission window. The pool hands out power-of-two size-class
// blocks from per-class freelists so steady-state messaging recycles the
// same few slabs; `fabric::Payload` layers an intrusive refcount on top so
// the retransmission window, chaos filters, and local delivery share one
// block instead of copying.
//
// Each class caches at most kMaxCachedBytesPerClass bytes, so the pool pins
// a bounded amount of memory whatever burst filled it. Blocks of
// kMapThreshold bytes and up are mapped straight from the OS: one the pool
// does not keep is unmapped and leaves RSS, instead of parking in a malloc
// arena. Blocks above the largest size class (1 MiB) are exact mappings
// and never cached — rendezvous payloads that big are rare and not worth
// pinning.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace sessmpi::base {

class BufferPool {
 public:
  struct Stats {
    std::uint64_t hits = 0;        ///< acquires served from a freelist
    std::uint64_t misses = 0;      ///< acquires that hit the system allocator
    std::uint64_t releases = 0;    ///< blocks returned (cached or freed)
    std::size_t cached_bytes = 0;  ///< bytes currently parked in freelists
    [[nodiscard]] double hit_rate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  BufferPool() = default;
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Process-wide pool shared by all simulated ranks (they are threads).
  static BufferPool& global();

  /// Returns a block of at least `bytes` bytes; `*capacity` receives the
  /// actual block size (the size class), which must be passed to release().
  void* acquire(std::size_t bytes, std::size_t* capacity);

  /// Returns a block obtained from acquire(). Blocks whose capacity is a
  /// size class are cached (up to the per-class byte cap); others are freed.
  void release(void* block, std::size_t capacity) noexcept;

  [[nodiscard]] Stats stats() const;

  /// Frees every cached block (tests / leak-checker hygiene).
  void trim();

  static constexpr std::size_t kMinBlock = 64;
  static constexpr std::size_t kClasses = 15;  ///< 64 B .. 1 MiB
  static constexpr std::size_t kMaxBlock = kMinBlock << (kClasses - 1);
  static constexpr std::size_t kMaxCachedBytesPerClass = std::size_t{4} << 20;
  static constexpr std::size_t kMapThreshold = std::size_t{64} << 10;

 private:
  /// Smallest class whose block size holds `bytes`, or kClasses if too big.
  static std::size_t class_for(std::size_t bytes) noexcept;
  static std::size_t class_bytes(std::size_t cls) noexcept { return kMinBlock << cls; }

  mutable std::mutex mu_;
  std::vector<void*> free_[kClasses];
  std::size_t cached_bytes_ = 0;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> releases_{0};
};

}  // namespace sessmpi::base
