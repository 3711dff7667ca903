#pragma once

// Retry/backoff helpers shared by layers that re-arm timers on loss: the
// fabric's retransmission pump (RTO doubling per retry) and any future
// runtime retry loop. Pure arithmetic — no clocks, no sleeping — so the
// policy is unit-testable and the caller decides how "now" advances.

#include <cstdint>

namespace sessmpi::base {

/// Exponential backoff: delay(k) = min(base * factor^k, cap), k = 0,1,2...
/// Integer factor keeps the math exact and overflow-checked.
struct ExponentialBackoff {
  std::int64_t base_ns = 1'000'000;       ///< first-retry delay
  std::int64_t cap_ns = 1'000'000'000;    ///< upper bound on any delay
  std::int64_t factor = 2;                ///< growth per retry

  [[nodiscard]] std::int64_t delay_ns(int retry) const noexcept {
    std::int64_t d = base_ns;
    for (int i = 0; i < retry; ++i) {
      if (d > cap_ns / factor) {
        return cap_ns;
      }
      d *= factor;
    }
    return d < cap_ns ? d : cap_ns;
  }
};

/// A monotonically re-armable deadline in now_ns() time. `expired` and
/// `arm` are trivial; the struct exists so deadline math reads as intent.
struct Deadline {
  std::int64_t at_ns = 0;

  void arm(std::int64_t now, std::int64_t delay) noexcept {
    at_ns = now + delay;
  }
  /// Park the deadline in the far future: the owner intends to re-arm it
  /// once an in-progress operation (e.g. an on-the-wire transmit) finishes.
  void arm_never() noexcept { at_ns = INT64_MAX; }
  [[nodiscard]] bool parked() const noexcept { return at_ns == INT64_MAX; }
  [[nodiscard]] bool expired(std::int64_t now) const noexcept {
    return now >= at_ns;
  }
};

}  // namespace sessmpi::base
