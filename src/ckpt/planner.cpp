// Daly checkpoint-interval planner (see planner.hpp). All state
// lives behind one mutex in an immortal singleton; the obs gauges read
// through the same lock, so TSan sees a clean picture even while rank
// threads feed failures concurrently.

#include "sessmpi/ckpt/planner.hpp"

#include <cmath>
#include <mutex>

#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::ckpt {

namespace {

struct PlannerState {
  std::mutex mu;
  std::uint64_t failures = 0;
  std::int64_t first_failure_ns = 0;
  std::int64_t last_failure_ns = 0;
  std::int64_t save_cost_ns = 0;  // EWMA, alpha = 1/4
};

PlannerState& state() {
  static auto* s = new PlannerState();
  return *s;
}

void register_tvars(IntervalPlanner* p) {
  obs::register_pvar_gauge("ckpt.planner.mtbf_ns", [p] {
    return static_cast<std::uint64_t>(p->mtbf_ns());
  });
  obs::register_pvar_gauge("ckpt.planner.interval_ns", [p] {
    return static_cast<std::uint64_t>(p->effective_interval_ns());
  });
  obs::register_pvar_gauge("ckpt.planner.save_cost_ns", [p] {
    return static_cast<std::uint64_t>(p->save_cost_ns());
  });
}

}  // namespace

void IntervalPlanner::note_failure(std::int64_t now_ns) {
  {
    std::lock_guard lk(state().mu);
    PlannerState& s = state();
    if (s.failures == 0) {
      s.first_failure_ns = now_ns;
    }
    s.last_failure_ns = now_ns;
    s.failures += 1;
  }
  base::counters().add("ckpt.planner.failures");
}

void IntervalPlanner::note_save_cost(std::int64_t cost_ns) {
  if (cost_ns <= 0) {
    return;
  }
  std::lock_guard lk(state().mu);
  PlannerState& s = state();
  s.save_cost_ns =
      s.save_cost_ns == 0 ? cost_ns : (3 * s.save_cost_ns + cost_ns) / 4;
}

std::int64_t IntervalPlanner::mtbf_ns() const {
  std::lock_guard lk(state().mu);
  const PlannerState& s = state();
  if (s.failures < 2 || s.last_failure_ns <= s.first_failure_ns) {
    return 0;
  }
  return (s.last_failure_ns - s.first_failure_ns) /
         static_cast<std::int64_t>(s.failures - 1);
}

std::int64_t IntervalPlanner::save_cost_ns() const {
  std::lock_guard lk(state().mu);
  return state().save_cost_ns;
}

std::int64_t IntervalPlanner::daly(std::int64_t save_cost_ns,
                                   std::int64_t mtbf_ns) {
  if (save_cost_ns <= 0 || mtbf_ns <= 0) {
    return 0;
  }
  const double d = static_cast<double>(save_cost_ns);
  const double mtbf = static_cast<double>(mtbf_ns);
  if (d >= 2.0 * mtbf) {
    return mtbf_ns;  // checkpointing costs more than the work it protects
  }
  const double ratio = d / (2.0 * mtbf);
  const double tau = std::sqrt(2.0 * d * mtbf) *
                         (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) -
                     d;
  return tau > 0 ? static_cast<std::int64_t>(tau) : mtbf_ns;
}

std::int64_t IntervalPlanner::effective_interval_ns() const {
  return daly(save_cost_ns(), mtbf_ns());
}

std::uint64_t IntervalPlanner::failures() const {
  std::lock_guard lk(state().mu);
  return state().failures;
}

void IntervalPlanner::reset() {
  std::lock_guard lk(state().mu);
  PlannerState& s = state();
  s.failures = 0;
  s.first_failure_ns = 0;
  s.last_failure_ns = 0;
  s.save_cost_ns = 0;
}

IntervalPlanner& planner() {
  static IntervalPlanner* p = [] {
    auto* inst = new IntervalPlanner();
    register_tvars(inst);
    return inst;
  }();
  return *p;
}

}  // namespace sessmpi::ckpt
