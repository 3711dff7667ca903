#pragma once

// Timing utilities: a monotonic wall clock, a stopwatch, and a calibrated
// delay injector used to model wire time and runtime costs in the simulated
// cluster. Delays below a threshold are spun (accurate to ~100ns); longer
// delays sleep to avoid burning the (small) host machine.

#include <chrono>
#include <cstdint>

namespace sessmpi::base {

using Clock = std::chrono::steady_clock;
using Nanos = std::chrono::nanoseconds;

/// Monotonic timestamp in nanoseconds.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<Nanos>(Clock::now().time_since_epoch())
      .count();
}

/// Busy-wait/sleep hybrid delay. Used by the cost model to inject simulated
/// hardware costs (wire time, NFS load, PMIx server exchange) into real time.
/// On a thread, delays <= spin_threshold_ns are spun for accuracy; longer
/// delays sleep most of the interval then spin the remainder. A fiber parks
/// on its worker's timer heap instead (base/wait.hpp).
void precise_delay(std::int64_t delay_ns) noexcept;

/// Spin threshold used by precise_delay (exposed for tests). Wire-scale
/// costs (<= ~700us) spin for accuracy — sleep_for overshoots by scheduler
/// quanta, which would swamp the per-message ratios the benchmarks compare;
/// millisecond-scale runtime costs sleep to spare the host's cores.
inline constexpr std::int64_t kSpinThresholdNs = 700'000;  // 700 us

/// Simple stopwatch around Clock.
class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}
  void reset() noexcept { start_ = Clock::now(); }
  [[nodiscard]] std::int64_t elapsed_ns() const noexcept {
    return std::chrono::duration_cast<Nanos>(Clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_us() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1.0e3;
  }
  [[nodiscard]] double elapsed_ms() const noexcept {
    return static_cast<double>(elapsed_ns()) / 1.0e6;
  }

 private:
  Clock::time_point start_;
};

}  // namespace sessmpi::base
