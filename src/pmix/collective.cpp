#include "sessmpi/pmix/collective.hpp"

#include <algorithm>


namespace sessmpi::pmix {

namespace {
/// Park cap while waiting: bounds how stale the failure oracle can be.
/// Completion itself is notify-driven; this only schedules failure checks,
/// so it is kept long to avoid wake-up storms at high rank counts.
constexpr std::int64_t kPollSlice = 10'000'000;  // 10 ms, in ns
}  // namespace

CollectiveEngine::CollectiveEngine(FailureOracle is_failed, EpochFn failure_epoch)
    : is_failed_(std::move(is_failed)), failure_epoch_(std::move(failure_epoch)) {}

std::size_t CollectiveEngine::active_ops() const {
  std::lock_guard lock(mu_);
  return ops_.size();
}

bool CollectiveEngine::try_abort_locked(const std::string& key,
                                        const std::shared_ptr<Op>& op,
                                        std::int64_t deadline_ns) {
  if (op->done.load(std::memory_order_relaxed)) {
    return false;
  }
  const bool timed_out = base::now_ns() >= deadline_ns;
  bool peer_failed = false;
  if (is_failed_) {
    // With an epoch source the O(participants) scan runs only when a new
    // failure was actually reported since the last scan of this op.
    bool scan = true;
    if (failure_epoch_) {
      const std::uint64_t epoch = failure_epoch_();
      scan = epoch != op->checked_epoch;
      op->checked_epoch = epoch;
    }
    if (scan) {
      peer_failed = std::any_of(op->participants.begin(),
                                op->participants.end(), is_failed_);
    }
  }
  if (!timed_out && !peer_failed) {
    return false;
  }
  op->status = base::RtStatus::fail(peer_failed ? base::ErrClass::rte_proc_failed
                                                : base::ErrClass::rte_timeout);
  aborted_[key] = op->status.cls;
  op->done.store(true, std::memory_order_release);
  op->word.notify();
  return true;
}

CollectiveEngine::Outcome CollectiveEngine::arrive(
    const std::string& key, const std::vector<ProcId>& participants,
    ProcId /*self*/, std::optional<base::Nanos> timeout,
    const std::function<std::uint64_t()>& on_complete,
    std::int64_t post_release_delay_ns) {
  std::unique_lock lock(mu_);

  if (auto it = aborted_.find(key); it != aborted_.end()) {
    return {base::RtStatus::fail(it->second), 0};
  }

  auto& slot = ops_[key];
  if (!slot) {
    slot = std::make_shared<Op>();
    slot->participants = participants;
    // A participant may have died before the op existed: the sentinel
    // differs from every real epoch, forcing one initial full scan.
    slot->checked_epoch = ~0ull;
  }
  std::shared_ptr<Op> op = slot;
  if (op->participants != participants) {
    return {base::RtStatus::fail(base::ErrClass::rte_bad_param), 0};
  }

  ++op->arrived;
  if (op->arrived == op->participants.size()) {
    op->status = base::RtStatus::success();
    op->value = on_complete ? on_complete() : 0;
    op->done.store(true, std::memory_order_release);
    op->word.notify();
  } else {
    const std::int64_t deadline =
        timeout ? base::now_ns() + timeout->count() : base::kNoDeadline;
    while (!op->done.load(std::memory_order_relaxed)) {
      lock.unlock();
      base::wait_until(
          op->word, [&] { return op->done.load(std::memory_order_acquire); },
          std::min(base::now_ns() + kPollSlice, deadline));
      lock.lock();
      // Abort paths. Only one thread performs the abort (done flag).
      if (try_abort_locked(key, op, deadline)) {
        break;
      }
    }
  }

  const Outcome out{op->status, op->value};
  ++op->departed;
  const bool everyone_done = op->departed == op->participants.size();
  const bool failed_and_drained = !op->status.ok() && op->departed == op->arrived;
  if (everyone_done || failed_and_drained) {
    ops_.erase(key);
  }
  lock.unlock();

  if (out.status.ok()) {
    base::precise_delay(post_release_delay_ns);
  }
  return out;
}

}  // namespace sessmpi::pmix
