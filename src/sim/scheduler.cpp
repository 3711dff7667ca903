#include "sessmpi/sim/scheduler.hpp"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/obs/tvar.hpp"

// Sanitizer fiber support: TSan must be told about every stack switch or
// it reports false races across fibers sharing a worker; ASan tracks fake
// stacks per fiber for use-after-return detection.
#if defined(__SANITIZE_THREAD__)
#define SESSMPI_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SESSMPI_TSAN 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__)
#define SESSMPI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SESSMPI_ASAN 1
#endif
#endif

#if defined(SESSMPI_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif
#if defined(SESSMPI_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    std::size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old,
                                     std::size_t* size_old);
}
#endif

namespace sessmpi::sim {

namespace {

std::atomic<int>& mode_flag() {
  static std::atomic<int> mode{0};  // 0 = threads, 1 = fibers
  return mode;
}

struct Worker;

/// One stackful fiber: context, guarded stack, task, sanitizer handles. It
/// is also its own base::Parker: a park switches it out to its worker,
/// which keeps it off the run queue until an unpark or its deadline.
struct Fiber final : base::Parker {
  void park(std::int64_t deadline_ns) override;
  void unpark() noexcept override;

  ucontext_t ctx{};
  void* map_base = nullptr;     ///< mmap base (guard page + stack)
  std::size_t map_bytes = 0;
  void* stack_lo = nullptr;     ///< usable stack bottom (above the guard)
  std::size_t stack_bytes = 0;
  FiberTask task;
  bool started = false;
  bool done = false;
  /// Park protocol: kParked once the worker filed the switched-out fiber;
  /// the one unpark or timer that moves it back to kRunning re-queues it.
  /// An unpark that finds it running (still switching out, or awake)
  /// leaves kNotified, which the next park consumes.
  enum : int { kRunning, kNotified, kParked };
  std::atomic<int> state{kRunning};
  Fiber* next_woken = nullptr;   ///< link in the owner's woken stack
  Worker* owner = nullptr;
#if defined(SESSMPI_TSAN)
  void* tsan = nullptr;
#endif
#if defined(SESSMPI_ASAN)
  void* fake_stack = nullptr;   ///< this fiber's saved ASan fake stack
#endif
};

/// (deadline, fiber). An entry outlived by its park may wake the fiber's
/// next park early, which the waits tolerate.
using Timer = std::pair<std::int64_t, Fiber*>;

struct Worker {
  std::deque<Fiber*> runq;
  /// Fibers unparked from any thread, pushed lock-free (newest first).
  std::atomic<Fiber*> woken{nullptr};
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;
  std::size_t live = 0;  ///< fibers not yet completed
  ucontext_t main_ctx{};
  Fiber* current = nullptr;
#if defined(SESSMPI_TSAN)
  void* main_tsan = nullptr;
#endif
#if defined(SESSMPI_ASAN)
  void* main_fake_stack = nullptr;
#endif
};

thread_local Worker* tls_worker = nullptr;

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return ps;
}

void alloc_stack(Fiber& f, std::size_t stack_bytes) {
  const std::size_t ps = page_size();
  const std::size_t usable = (stack_bytes + ps - 1) / ps * ps;
  const std::size_t total = usable + ps;  // + guard page below the stack
  void* mem = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (mem == MAP_FAILED) {
    throw base::Error(base::ErrClass::intern, "fiber stack mmap failed");
  }
  if (mprotect(mem, ps, PROT_NONE) != 0) {
    munmap(mem, total);
    throw base::Error(base::ErrClass::intern, "fiber guard mprotect failed");
  }
  f.map_base = mem;
  f.map_bytes = total;
  f.stack_lo = static_cast<char*>(mem) + ps;
  f.stack_bytes = usable;
}

void free_stack(Fiber& f) {
  if (f.map_base != nullptr) {
    munmap(f.map_base, f.map_bytes);
    f.map_base = nullptr;
  }
}

base::Counters::Handle& switch_counter() {
  static auto handle = base::counter("sim.fiber_switches");
  return handle;
}

/// Switch worker -> fiber. Runs on the worker's main context.
void switch_in(Worker& w, Fiber& f) {
  w.current = &f;
#if defined(SESSMPI_TSAN)
  __tsan_switch_to_fiber(f.tsan, 0);
#endif
#if defined(SESSMPI_ASAN)
  __sanitizer_start_switch_fiber(&w.main_fake_stack, f.stack_lo, f.stack_bytes);
#endif
  swapcontext(&w.main_ctx, &f.ctx);
  // Back on the worker context: the fiber parked or completed.
#if defined(SESSMPI_ASAN)
  __sanitizer_finish_switch_fiber(w.main_fake_stack, nullptr, nullptr);
#endif
  w.current = nullptr;
}

/// Switch fiber -> worker. Runs on the fiber's context. `final` marks the
/// fiber's last switch-out (its fake stack is released, never resumed).
void switch_out(Worker& w, Fiber& f, bool final_switch) {
  switch_counter().add();
#if defined(SESSMPI_TSAN)
  __tsan_switch_to_fiber(w.main_tsan, 0);
#endif
#if defined(SESSMPI_ASAN)
  __sanitizer_start_switch_fiber(final_switch ? nullptr : &f.fake_stack,
                                 nullptr, 0);
#endif
  if (final_switch) {
    // Never returns: the worker observes done and reclaims the fiber.
    swapcontext(&f.ctx, &w.main_ctx);
  } else {
    swapcontext(&f.ctx, &w.main_ctx);
    // Resumed.
#if defined(SESSMPI_ASAN)
    __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
  }
}

void Fiber::park(std::int64_t deadline) {
  // Alone on its worker, a fiber waits in place: switching out would only
  // hand the core to a worker loop that polls for the same wake.
  Worker& w = *owner;
  while (state.load(std::memory_order_relaxed) != kNotified &&
         w.runq.empty() && w.woken.load(std::memory_order_relaxed) == nullptr &&
         (w.timers.empty() || w.timers.top().first > base::now_ns()) &&
         base::now_ns() < deadline) {
    std::this_thread::yield();
  }
  int s = kNotified;
  if (state.compare_exchange_strong(s, kRunning, std::memory_order_acquire) ||
      base::now_ns() >= deadline) {
    return;  // woken, or timed out, without switching
  }
  if (deadline != base::kNoDeadline) {
    w.timers.emplace(deadline, this);  // this thread is the worker's
  }
  switch_out(w, *this, /*final_switch=*/false);
}

void Fiber::unpark() noexcept {
  int s = state.load(std::memory_order_relaxed);
  while (s != kNotified &&
         !state.compare_exchange_weak(s, s == kParked ? kRunning : kNotified,
                                      std::memory_order_acq_rel)) {
  }
  if (s == kParked) {
    next_woken = owner->woken.load(std::memory_order_relaxed);
    while (!owner->woken.compare_exchange_weak(next_woken, this)) {
    }
  }
}

/// Fiber entry point. makecontext can only pass ints, so the fiber to run
/// is picked up from the worker's `current` slot (set by switch_in on the
/// same thread just before the swap).
void trampoline() {
  Worker& w = *tls_worker;
  Fiber& f = *w.current;
#if defined(SESSMPI_ASAN)
  __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
  try {
    f.task.body();
  } catch (...) {
    // Rank bodies catch their own failures (Cluster::run_on records them);
    // an exception escaping across a context switch is UB, so strays stop
    // here.
  }
  f.done = true;
  switch_out(w, f, /*final_switch=*/true);
  // Unreachable: a completed fiber is never resumed.
  std::terminate();
}

void worker_main(Worker& w) {
  tls_worker = &w;
#if defined(SESSMPI_TSAN)
  w.main_tsan = __tsan_get_current_fiber();
#endif
  while (w.live > 0) {
    // Re-queue the woken fibers and those whose park deadline passed.
    for (Fiber* f = w.woken.exchange(nullptr, std::memory_order_acquire);
         f != nullptr; f = f->next_woken) {
      w.runq.push_back(f);
    }
    while (!w.timers.empty() && w.timers.top().first <= base::now_ns()) {
      Fiber* f = w.timers.top().second;
      w.timers.pop();
      int s = Fiber::kParked;
      if (f->state.compare_exchange_strong(s, Fiber::kRunning,
                                           std::memory_order_acquire)) {
        w.runq.push_back(f);
      }
    }
    if (w.runq.empty()) {
      // Every fiber here is parked: poll again, never sleep, so a wake
      // from another thread costs no futex round trip.
      std::this_thread::yield();
      continue;
    }
    Fiber* f = w.runq.front();
    w.runq.pop_front();
    if (!f->started) {
      f->started = true;
      getcontext(&f->ctx);
      f->ctx.uc_stack.ss_sp = f->stack_lo;
      f->ctx.uc_stack.ss_size = f->stack_bytes;
      f->ctx.uc_link = nullptr;  // completion swaps back explicitly
      makecontext(&f->ctx, &trampoline, 0);
    }
    if (f->task.on_resume) {
      f->task.on_resume();
    }
    base::set_fiber_parker(f);
    switch_in(w, *f);
    base::set_fiber_parker(nullptr);
    if (f->task.on_suspend) {
      f->task.on_suspend();
    }
    if (f->done) {
#if defined(SESSMPI_TSAN)
      __tsan_destroy_fiber(f->tsan);
      f->tsan = nullptr;
#endif
      free_stack(*f);
      --w.live;
      continue;
    }
    // Parked: file it, or re-queue it at once if an unpark came first.
    int s = Fiber::kRunning;
    if (!f->state.compare_exchange_strong(s, Fiber::kParked,
                                          std::memory_order_acq_rel)) {
      f->state.store(Fiber::kRunning, std::memory_order_relaxed);
      w.runq.push_back(f);
    }
  }
  tls_worker = nullptr;
}

}  // namespace

void register_scheduler_cvar() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::register_cvar(
        "sim.scheduler",
        "rank scheduling: \"threads\" (one OS thread per rank, default) or "
        "\"fibers\" (cooperative task pool; O(10k) ranks on one host)",
        [] {
          return mode_flag().load(std::memory_order_acquire) == 1
                     ? std::string("fibers")
                     : std::string("threads");
        },
        [](const std::string& v) {
          if (v == "threads") {
            mode_flag().store(0, std::memory_order_release);
            return true;
          }
          if (v == "fibers") {
            mode_flag().store(1, std::memory_order_release);
            return true;
          }
          return false;
        });
  });
}

SchedulerMode scheduler_mode() {
  register_scheduler_cvar();
  return mode_flag().load(std::memory_order_acquire) == 1
             ? SchedulerMode::fibers
             : SchedulerMode::threads;
}

void FiberPool::run(std::vector<FiberTask> tasks, Options opts) {
  if (tasks.empty()) {
    return;
  }
  int workers = opts.workers;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency()) - 1;
  }
  if (workers < 1) {
    workers = 1;
  }
  if (static_cast<std::size_t>(workers) > tasks.size()) {
    workers = static_cast<int>(tasks.size());
  }

  std::vector<std::unique_ptr<Fiber>> fibers;
  fibers.reserve(tasks.size());
  std::vector<Worker> pool(static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto f = std::make_unique<Fiber>();
    f->task = std::move(tasks[i]);
    alloc_stack(*f, opts.stack_bytes);
#if defined(SESSMPI_TSAN)
    f->tsan = __tsan_create_fiber(0);
#endif
    // Round-robin pinning: fiber i lives on worker i % workers forever.
    Worker& w = pool[i % static_cast<std::size_t>(workers)];
    f->owner = &w;
    w.runq.push_back(f.get());
    ++w.live;
    fibers.push_back(std::move(f));
  }

  std::vector<std::thread> threads;
  threads.reserve(pool.size());
  for (Worker& w : pool) {
    threads.emplace_back([&w] { worker_main(w); });
  }
  for (auto& t : threads) {
    t.join();
  }
}

}  // namespace sessmpi::sim
