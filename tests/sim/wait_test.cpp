// The one park/wake wait (base/wait.hpp) under both carriers: OS threads
// and fibers on the FiberPool scheduler (DESIGN.md §15).

#include "sessmpi/base/wait.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi::sim {
namespace {

using base::WaitWord;

/// A wait that should be ended by a notify long before this; a lost
/// wake-up fails the test here instead of hanging it.
std::int64_t generous() { return base::now_ns() + 30'000'000'000; }

/// Run `bodies` to completion: one OS thread each, or as fibers pinned
/// round-robin to `workers` workers (body i on worker i % workers).
void run_all(SchedulerMode mode, std::vector<std::function<void()>> bodies,
             int workers) {
  if (mode == SchedulerMode::threads) {
    std::vector<std::thread> threads;
    for (auto& b : bodies) {
      threads.emplace_back(std::move(b));
    }
    for (auto& t : threads) {
      t.join();
    }
    return;
  }
  std::vector<FiberTask> tasks(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    tasks[i].body = std::move(bodies[i]);
  }
  FiberPool::Options opts;
  opts.workers = workers;
  FiberPool::run(std::move(tasks), opts);
}

std::string mode_name(const testing::TestParamInfo<SchedulerMode>& info) {
  return info.param == SchedulerMode::fibers ? "fibers" : "threads";
}

/// Ping-pong over two words: the producer publishes round i and parks
/// until every consumer acknowledged it; each consumer parks until round
/// i is out. Every round races a notify against a check-then-park.
struct PingPong {
  static constexpr std::uint64_t kRounds = 100'000;
  static constexpr std::uint64_t kConsumers = 2;

  std::atomic<std::uint64_t> round{0};
  std::atomic<std::uint64_t> acks{0};
  WaitWord round_word;
  WaitWord ack_word;
  std::atomic<bool> lost{false};

  void producer() {
    for (std::uint64_t i = 1; i <= kRounds && !lost.load(); ++i) {
      round.store(i, std::memory_order_release);
      round_word.notify();
      if (!base::wait_until(
              ack_word, [&] { return acks.load() >= kConsumers * i; },
              generous())) {
        lost.store(true);
      }
    }
  }

  void consumer() {
    for (std::uint64_t i = 1; i <= kRounds && !lost.load(); ++i) {
      if (!base::wait_until(
              round_word, [&] { return round.load() >= i || lost.load(); },
              generous())) {
        lost.store(true);
      }
      acks.fetch_add(1);
      ack_word.notify();
    }
  }
};

class WaitModes : public testing::TestWithParam<SchedulerMode> {};

INSTANTIATE_TEST_SUITE_P(Sched, WaitModes,
                         testing::Values(SchedulerMode::threads,
                                         SchedulerMode::fibers),
                         mode_name);

TEST_P(WaitModes, NoLostWakeupWithProducerOnAnotherWorker) {
  // Fibers: both consumers share worker 0, the producer runs on worker 1,
  // so every wake is a cross-worker re-queue.
  PingPong pp;
  run_all(GetParam(),
          {[&] { pp.consumer(); }, [&] { pp.producer(); },
           [&] { pp.consumer(); }},
          2);
  EXPECT_FALSE(pp.lost.load());
  EXPECT_EQ(pp.acks.load(), PingPong::kRounds * PingPong::kConsumers);
}

TEST_P(WaitModes, NoLostWakeupWithProducerOnPlainThread) {
  // The producer is an OS thread outside the pool (as the fabric pump is);
  // the consumers are fibers on one worker, or threads.
  PingPong pp;
  std::thread producer([&] { pp.producer(); });
  run_all(GetParam(), {[&] { pp.consumer(); }, [&] { pp.consumer(); }}, 1);
  producer.join();
  EXPECT_FALSE(pp.lost.load());
  EXPECT_EQ(pp.acks.load(), PingPong::kRounds * PingPong::kConsumers);
}

TEST_P(WaitModes, DeadlineOnlyWaitsReturnNoEarlierThanTheDeadline) {
  std::atomic<int> early{0};
  const auto body = [&] {
    for (std::int64_t d : {20'000, 300'000, 1'500'000}) {
      const std::int64_t start = base::now_ns();
      base::precise_delay(d);
      if (base::now_ns() - start < d) {
        early.fetch_add(1);
      }
      WaitWord never;
      const std::int64_t deadline = base::now_ns() + d;
      if (base::wait_until(never, [] { return false; }, deadline) ||
          base::now_ns() < deadline) {
        early.fetch_add(1);
      }
    }
  };
  // Fibers: three on one worker, so each deadline races the others' parks.
  run_all(GetParam(), {body, body, body}, 1);
  EXPECT_EQ(early.load(), 0);
}

TEST_P(WaitModes, ParkedWaitersAreNotResumedUntilNotified) {
  // N-1 waiters park on a word that is notified only at the end, while one
  // driver parks and wakes K times on its own deadlines. A waiter must not
  // be resumed for the driver's passes: its predicate runs O(1) times, and
  // on fibers the whole run costs at most K + O(N) switches, not O(K * N).
  constexpr int kWaiters = 63;
  constexpr int kDriverParks = 200;
  WaitWord word;
  std::atomic<bool> go{false};
  std::atomic<int> checks{0};
  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    for (int i = 0; i < kDriverParks; ++i) {
      base::precise_delay(2'000);
    }
    go.store(true, std::memory_order_release);
    word.notify();
  });
  for (int i = 0; i < kWaiters; ++i) {
    bodies.emplace_back([&] {
      base::wait_until(word, [&] {
        checks.fetch_add(1);
        return go.load(std::memory_order_acquire);
      });
    });
  }
  static const auto switches = base::counter("sim.fiber_switches");
  const std::uint64_t before = switches.value();
  run_all(GetParam(), std::move(bodies), 1);
  const std::uint64_t delta = switches.value() - before;
  // Per waiter: the fast-path check, the check after registering, the one
  // after the wake — plus slack for a wake racing its registration.
  EXPECT_LE(checks.load(), 4 * kWaiters);
  if (GetParam() == SchedulerMode::fibers) {
    // Driver: at most one switch per park (none while it is alone on the
    // worker) plus its final one; waiters: one park and one final switch
    // each.
    EXPECT_LE(delta, static_cast<std::uint64_t>(kDriverParks + 1 +
                                                 3 * kWaiters));
  } else {
    EXPECT_EQ(delta, 0u);
  }
}

}  // namespace
}  // namespace sessmpi::sim
