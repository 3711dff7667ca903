#include "sessmpi/base/wait.hpp"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>
#include <thread>
#include <utility>

#include "sessmpi/base/clock.hpp"

namespace sessmpi::base {

namespace {
thread_local Parker* tls_fiber_parker = nullptr;

void futex(std::atomic<int>& word, int op, int val, const timespec* abs) {
  syscall(SYS_futex, reinterpret_cast<int*>(&word), op | FUTEX_PRIVATE_FLAG,
          val, abs, nullptr, FUTEX_BITSET_MATCH_ANY);
}
}  // namespace

void set_fiber_parker(Parker* fiber) noexcept { tls_fiber_parker = fiber; }

/// Lives in the waiting frame. A thread sleeps on `woken` (a futex word);
/// a fiber parks through `fiber`. A notify clears `linked` as its last
/// touch of the node, so a waiter that reads it false may drop the node.
struct WaitWord::Waiter {
  Parker* fiber = tls_fiber_parker;
  Waiter* next = nullptr;
  Waiter* prev = nullptr;
  std::atomic<bool> linked{false};
  std::atomic<int> woken{0};
};

void WaitWord::unlink(Waiter& w) {
  if (!w.linked.load(std::memory_order_acquire)) {
    return;  // a notify unlinked us and is done with the node
  }
  std::lock_guard lock(mu_);
  if (w.linked.exchange(false, std::memory_order_relaxed)) {
    (w.prev != nullptr ? w.prev->next : head_) = w.next;
    if (w.next != nullptr) {
      w.next->prev = w.prev;
    }
    waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void WaitWord::notify() noexcept {
  // Dekker with wait(): either our load sees the waiter registered, or its
  // epoch load comes after this increment, reads it, and so sees every
  // store we made before notifying.
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (waiters_.load(std::memory_order_seq_cst) == 0) {
    return;
  }
  std::lock_guard lock(mu_);
  for (Waiter *w = std::exchange(head_, nullptr), *next; w != nullptr;
       w = next) {
    next = w->next;
    if (w->fiber != nullptr) {
      w->fiber->unpark();
    } else {
      w->woken.store(1, std::memory_order_release);
      futex(w->woken, FUTEX_WAKE, 1, nullptr);
    }
    w->linked.store(false, std::memory_order_release);
  }
  waiters_.store(0, std::memory_order_relaxed);
}

bool WaitWord::wait(bool (*pred)(const void*), const void* ctx,
                    std::int64_t deadline_ns) {
  Waiter w;
  // steady_clock is CLOCK_MONOTONIC, which FUTEX_WAIT_BITSET measures.
  const timespec abs{static_cast<time_t>(deadline_ns / 1'000'000'000),
                     static_cast<long>(deadline_ns % 1'000'000'000)};
  for (;;) {
    {
      std::lock_guard lock(mu_);
      w.prev = nullptr;
      w.next = std::exchange(head_, &w);
      if (w.next != nullptr) {
        w.next->prev = &w;
      }
      w.linked.store(true, std::memory_order_relaxed);
      w.woken.store(0, std::memory_order_relaxed);
      waiters_.fetch_add(1, std::memory_order_seq_cst);
    }
    (void)epoch_.load(std::memory_order_seq_cst);  // see notify()
    const bool ok = pred(ctx);
    if (ok || now_ns() >= deadline_ns) {
      unlink(w);
      return ok;
    }
    if (w.fiber != nullptr) {
      w.fiber->park(deadline_ns);
    } else {
      futex(w.woken, FUTEX_WAIT_BITSET, 0,
            deadline_ns == kNoDeadline ? nullptr : &abs);
    }
    unlink(w);
    if (pred(ctx)) {
      return true;
    }
  }
}

void precise_delay(std::int64_t delay_ns) noexcept {
  if (delay_ns <= 0) {
    return;
  }
  const std::int64_t deadline = now_ns() + delay_ns;
  if (tls_fiber_parker != nullptr) {
    // Sleeping would stall every fiber on this worker: park on its timers.
    while (now_ns() < deadline) {
      tls_fiber_parker->park(deadline);
    }
    return;
  }
  if (delay_ns > kSpinThresholdNs) {
    // Sleep for all but the final spin window. sleep_for may overshoot by a
    // scheduler quantum; that is acceptable for the millisecond-scale costs
    // modeled with this path (startup, server exchanges).
    std::this_thread::sleep_for(Nanos(delay_ns - kSpinThresholdNs));
  }
  while (now_ns() < deadline) {
    // spin
  }
}

}  // namespace sessmpi::base
