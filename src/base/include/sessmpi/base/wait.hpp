#pragma once

// One park/wake wait for every blocking point in the stack (DESIGN.md §15).
//
// A WaitWord stands for "state a waiter may be waiting on": an inbox, a
// flag, a flow window, a PMIx operation. A blocked caller runs
//
//     base::wait_until(word, pred, deadline_ns);
//
// and whoever makes `pred` true stores the state, then calls
// `word.notify()`. The waiter registers on the word before its last check
// of `pred`, and notify() sees every registered waiter, so a wake-up can be
// neither lost nor needed twice.
//
// The caller is parked, whatever carries it:
//  - a fiber leaves its worker's run queue and is re-queued by the notify
//    (from any thread) or by its deadline in the worker's timer heap; the
//    fiber scheduler installs the running fiber's Parker (set_fiber_parker);
//  - an OS thread sleeps on a futex until the notify or the deadline.
// The waiter node, futex word included, lives in the waiting frame, so a
// park allocates nothing. A wait with only a deadline is
// base::precise_delay.
//
// Rule: never park holding a lock another rank can contend. Predicates run
// with the waiter registered, so they must not notify the word they wait on.

#include <atomic>
#include <cstdint>
#include <limits>
#include <mutex>
#include <type_traits>

namespace sessmpi::base {

/// Deadline of a wait that only a notify ends.
inline constexpr std::int64_t kNoDeadline =
    std::numeric_limits<std::int64_t>::max();

/// A fiber as the waits see it; the fiber scheduler implements it.
class Parker {
 public:
  /// Switch out until unpark() or `deadline_ns` (base::now_ns() clock).
  /// May return early; an unpark() that came first makes it return at once.
  virtual void park(std::int64_t deadline_ns) = 0;
  /// Re-queue the parked fiber, or make its next park() return. Any thread.
  virtual void unpark() noexcept = 0;
};

/// Installed by the fiber scheduler around every resume (nullptr clears):
/// the Parker of the fiber the current thread runs.
void set_fiber_parker(Parker* fiber) noexcept;

class WaitWord {
 public:
  /// Number of notify() calls so far. A predicate `epoch() != seen`, with
  /// `seen` sampled before the caller last checked its state, waits for
  /// "anything new".
  [[nodiscard]] std::uint32_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Wake every waiter. Call after the store that may make a predicate true.
  void notify() noexcept;

  /// The slow path of wait_until: `pred(ctx)` is the caller's predicate.
  bool wait(bool (*pred)(const void*), const void* ctx,
            std::int64_t deadline_ns);

 private:
  struct Waiter;
  void unlink(Waiter& w);

  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mu_;  ///< guards the waiter list; never held across a park
  Waiter* head_ = nullptr;
};

/// Block until `pred()` holds (returns true) or `deadline_ns` passes
/// (returns false).
template <typename Pred>
bool wait_until(WaitWord& word, Pred&& pred,
                std::int64_t deadline_ns = kNoDeadline) {
  if (pred()) {
    return true;
  }
  using P = std::remove_reference_t<Pred>;
  return word.wait(
      [](const void* p) { return static_cast<bool>((*static_cast<const P*>(p))()); },
      &pred, deadline_ns);
}

}  // namespace sessmpi::base
