#pragma once

// A blocking multi-producer single-consumer inbox used as the receive queue
// of every simulated process endpoint. Producers are other rank threads (and
// runtime threads); the consumer is the owning rank's progress engine.
//
// Its WaitWord is the owning rank's one wake word (DESIGN.md §15): every
// push notifies it, and so do the other events a blocked rank waits for —
// on-node shm publications and releases, and failure notices.

#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/wait.hpp"

namespace sessmpi::base {

template <typename T>
class Inbox {
 public:
  /// Enqueue an item and wake the consumer if it is parked.
  void push(T item) {
    {
      std::lock_guard lock(mu_);
      items_.push_back(std::move(item));
    }
    word_.notify();
  }

  /// Non-blocking pop; returns nullopt when empty.
  std::optional<T> try_pop() {
    std::lock_guard lock(mu_);
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Blocking pop with timeout. Returns nullopt on timeout.
  template <typename Rep, typename Period>
  std::optional<T> pop_wait(std::chrono::duration<Rep, Period> timeout) {
    std::optional<T> item;
    wait_until(
        word_, [&] { return (item = try_pop()).has_value(); },
        now_ns() + std::chrono::duration_cast<Nanos>(timeout).count());
    return item;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] WaitWord& word() noexcept { return word_; }

 private:
  mutable std::mutex mu_;
  std::deque<T> items_;
  WaitWord word_;
};

}  // namespace sessmpi::base
