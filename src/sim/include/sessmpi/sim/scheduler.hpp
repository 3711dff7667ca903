#pragma once

// Cooperative task-pool scheduler for simulated ranks (DESIGN.md §15).
//
// Thread mode (the default) spawns one OS thread per rank, which caps a
// single host near a few thousand ranks: each thread costs a full kernel
// stack, a scheduler entity, and — far worse — every modeled delay parks a
// core in sleep_for. Fiber mode multiplexes all rank bodies onto a small
// pool of worker threads as stackful ucontext fibers.
//
// Every blocking point in the stack is a base::wait_until on a WaitWord
// (base/wait.hpp). On a fiber it parks: the fiber leaves its worker's run
// queue and costs nothing until a notify re-queues it (from any thread:
// another worker, the fabric pump, a rank thread) or its deadline expires
// in the worker's timer heap. A worker with nothing runnable polls its
// woken stack and timers; it never sleeps.
//
// Fibers are PINNED to the worker that first runs them (no migration):
// rank TLS (sim::Process binding, tracer track) is restored on every
// resume via the task hooks, per-fiber state never crosses threads
// mid-flight, and the TSan/ASan fiber annotations stay simple. A wake from
// another thread only pushes the fiber onto its owner's woken stack.
//
// Park-safety contract (DESIGN.md §15): code must never park while holding
// a lock another rank's fiber can block on. Per-rank locks (ProcState::mu,
// the PMIx client cache) are safe; cross-rank waits are lock-free
// reservations or state machines (PmixServer RPC serialization, the
// per-node NFS component load).

#include <cstddef>
#include <functional>
#include <vector>

namespace sessmpi::sim {

enum class SchedulerMode { threads, fibers };

/// Current mode from the `sim.scheduler` cvar ("threads" | "fibers").
/// Registers the cvar on first use; default is threads until fiber parity
/// is proven at every scale.
[[nodiscard]] SchedulerMode scheduler_mode();

/// Idempotent registration of the `sim.scheduler` cvar (MPI_T namespace).
void register_scheduler_cvar();

/// One cooperative task (a simulated rank's body plus its TLS lifecycle).
struct FiberTask {
  /// The rank body. Runs to completion across any number of parks; must
  /// not leak exceptions (the cluster body already catches everything, and
  /// the trampoline swallows strays as a last resort).
  std::function<void()> body;
  /// Called on the worker thread immediately before every resume of this
  /// task (install rank TLS: process binding, tracer track).
  std::function<void()> on_resume;
  /// Called on the worker thread immediately after every suspend.
  std::function<void()> on_suspend;
};

/// Stackful fiber pool. `run` blocks until every task completed.
class FiberPool {
 public:
  struct Options {
    /// Worker OS threads; 0 = hardware_concurrency - 1 (leave a core for
    /// the fabric pump), at least 1.
    int workers = 0;
    /// Per-fiber stack. Virtual (MAP_NORESERVE) with a PROT_NONE guard
    /// page below, so 16k fibers cost ~4 GiB of address space but only the
    /// touched pages of RSS.
    std::size_t stack_bytes = 256 * 1024;
  };

  /// Run all tasks to completion on a pool of pinned workers. The number
  /// of fiber-to-scheduler switches performed is added to the
  /// `sim.fiber_switches` counter (exposed as an MPI_T pvar).
  static void run(std::vector<FiberTask> tasks, Options opts);
  static void run(std::vector<FiberTask> tasks) {
    run(std::move(tasks), Options{});
  }
};

}  // namespace sessmpi::sim
