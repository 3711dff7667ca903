#pragma once

// Rendezvous engine for PMIx collective operations (fence, group construct,
// group destruct). Each logical collective is identified by a key that the
// caller has already disambiguated with a per-participant sequence number
// (all participants of a collective perform the same sequence of operations
// on a key, so locally-maintained counters agree).
//
// Blocking with a timeout and abort-on-participant-failure are supported:
// both map the PMIx directives described in paper §III-A ("support a
// time-out feature to avoid deadlock due to a non-responsive participant").

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/error.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/pmix/value.hpp"

namespace sessmpi::pmix {

class CollectiveEngine {
 public:
  /// Oracle consulted while waiting: returns true if the given process has
  /// terminated without departing its collectives.
  using FailureOracle = std::function<bool(ProcId)>;

  /// Monotonic failure-epoch source. When provided, the per-participant
  /// failure scan while waiting only runs after the epoch moved — the
  /// steady-state liveness check is O(1) instead of O(participants).
  using EpochFn = std::function<std::uint64_t()>;

  explicit CollectiveEngine(FailureOracle is_failed, EpochFn failure_epoch = {});

  struct Outcome {
    base::RtStatus status;
    std::uint64_t value = 0;  ///< e.g. the PGCID computed on completion
  };

  /// Join collective `key` as `self` and block until every participant has
  /// arrived (success), the timeout expires (rte_timeout), or a participant
  /// is observed failed (rte_proc_failed). `on_complete` runs exactly once,
  /// on the last arriver, and its return value is distributed to everyone.
  /// `post_release_delay_ns` models the inter-server data exchange; it is
  /// injected on every participant's own thread after release so concurrent
  /// participants add it to wall time once.
  Outcome arrive(const std::string& key, const std::vector<ProcId>& participants,
                 ProcId self, std::optional<base::Nanos> timeout,
                 const std::function<std::uint64_t()>& on_complete,
                 std::int64_t post_release_delay_ns);

  /// Number of in-flight operations (diagnostics).
  [[nodiscard]] std::size_t active_ops() const;

 private:
  struct Op {
    std::vector<ProcId> participants;
    std::size_t arrived = 0;
    std::size_t departed = 0;
    /// Set (with status and value, under mu_) on completion or abort;
    /// read lock-free by the waiters' predicate.
    std::atomic<bool> done{false};
    /// Failure epoch at the last participant scan (oracle gating).
    std::uint64_t checked_epoch = 0;
    base::RtStatus status = base::RtStatus::success();
    std::uint64_t value = 0;
    base::WaitWord word;  ///< notified on completion or abort
  };

  /// Run the timeout/failure abort checks for `op` (mu_ held). Returns
  /// true if the op was aborted by this call.
  bool try_abort_locked(const std::string& key, const std::shared_ptr<Op>& op,
                        std::int64_t deadline_ns);

  FailureOracle is_failed_;
  EpochFn failure_epoch_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Op>> ops_;
  /// Keys of aborted operations and their error class; consulted by late
  /// arrivals so they observe the same failure instead of hanging.
  std::map<std::string, base::ErrClass> aborted_;
};

}  // namespace sessmpi::pmix
