#pragma once

// Checkpoint-interval planner (Daly). The planner turns two measured
// quantities — mean time between failures as observed by the workload
// (e.g. under the sim's chaos schedule) and the EWMA cost of a coordinated
// save — into the optimal checkpoint interval:
//
//   tau = sqrt(2 * delta * M) * (1 + (1/3) * sqrt(delta / (2M))
//                                  + (1/9) * (delta / (2M))) - delta
//   (delta < 2M; tau = M beyond that)
//
// with delta = save cost and M = MTBF, both in nanoseconds. The leading
// term is Young's sqrt(2 * delta * M); the higher-order terms keep tau
// below M when saves are expensive, where Young's value exceeds the MTBF.
//
// One process-wide planner instance (`planner()`) aggregates failures from
// every rank of the simulated cluster — MTBF is a system property, not a
// per-rank one. It exposes its state as MPI_T pvars:
//
//   gauges  ckpt.planner.mtbf_ns, ckpt.planner.interval_ns,
//           ckpt.planner.save_cost_ns
//   counter ckpt.planner.failures

#include <cstdint>

namespace sessmpi::ckpt {

class IntervalPlanner {
 public:
  /// Record an observed failure (rank death detected by the workload or
  /// the chaos schedule) at absolute time `now_ns`. Thread-safe.
  void note_failure(std::int64_t now_ns);

  /// Record the measured cost of one coordinated save (EWMA, alpha 1/4).
  void note_save_cost(std::int64_t cost_ns);

  /// Mean time between observed failures; 0 until two failures were seen.
  [[nodiscard]] std::int64_t mtbf_ns() const;

  [[nodiscard]] std::int64_t save_cost_ns() const;

  /// daly(save cost, MTBF) from the current estimates; 0 while either is
  /// unknown (Checkpointer::should_save then fires on every call).
  [[nodiscard]] std::int64_t effective_interval_ns() const;

  [[nodiscard]] std::uint64_t failures() const;

  /// Forget all measurements (tests isolate themselves with this).
  void reset();

  /// Pure planner math, exposed for unit tests; 0 when either input is 0.
  static std::int64_t daly(std::int64_t save_cost_ns, std::int64_t mtbf_ns);
};

/// The process-wide planner (created on first use, registered with the
/// obs pvar namespace, immortal).
IntervalPlanner& planner();

}  // namespace sessmpi::ckpt
