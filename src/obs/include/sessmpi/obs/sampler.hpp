#pragma once

// Metrics time-series (DESIGN.md §16). A background thread snapshots every
// pvar (counters, gauges, histogram count/p99) into a bounded in-memory
// ring at a cvar-controlled period, exported as JSONL — one sample object
// per line — so a scaling run leaves a metric *timeline*, not just an
// end-of-run snapshot. Off by default: with `obs.metrics.period_ms` at 0
// no thread exists and nothing is allocated.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sessmpi/base/wait.hpp"

namespace sessmpi::obs {

/// One sampled pvar value at one instant.
struct MetricPoint {
  std::string name;
  double value = 0;
};

/// One sampler tick: wall timestamp plus every pvar's value.
struct MetricSample {
  std::int64_t ts_ns = 0;
  std::vector<MetricPoint> points;
};

class MetricsSampler {
 public:
  static MetricsSampler& instance();

  /// Sampling period; 0 stops the thread (and joins it). Exposed as the
  /// `obs.metrics.period_ms` cvar. Thread-safe.
  void set_period_ms(int ms);
  [[nodiscard]] int period_ms() const noexcept {
    return period_ms_.load(std::memory_order_relaxed);
  }

  /// Take one sample immediately (also what the thread does each tick).
  void sample_now();

  /// Oldest-first copy of the retained samples.
  [[nodiscard]] std::vector<MetricSample> samples() const;

  /// Drop all retained samples.
  void clear();

  /// Write the retained samples as JSONL:
  ///   {"ts_ns": 12345, "pvars": {"fabric.bytes_sent": 4096, ...}}
  /// Returns the number of lines written; 0 also when the file cannot be
  /// opened.
  std::size_t write_jsonl(const std::string& path) const;

  /// Samples retained before the oldest is evicted.
  static constexpr std::size_t kMaxSamples = 4096;

 private:
  MetricsSampler() = default;
  ~MetricsSampler();
  void run();

  std::mutex ctl_mu_;  ///< guards thread start/stop transitions
  base::WaitWord wake_;  ///< notified on every period change
  std::thread thread_;
  bool running_ = false;  ///< under ctl_mu_
  std::atomic<int> period_ms_{0};
  std::atomic<bool> stop_{false};

  mutable std::mutex ring_mu_;  ///< guards ring_
  std::deque<MetricSample> ring_;
};

}  // namespace sessmpi::obs
