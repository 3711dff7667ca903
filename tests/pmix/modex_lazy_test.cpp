// Lazy modex properties (DESIGN.md §15): get-on-first-message endpoint
// resolution must be exactly-once per (process, peer) regardless of the
// first-contact order, all later lookups must come from the per-rank cache,
// and a peer that died before publishing must resolve to rte_proc_failed
// promptly (negative cache) — never hang. The orderings are seeded random
// permutations, so every run sweeps a different contact schedule.

#include "sessmpi/pmix/client.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "../core/harness.hpp"
#include "sessmpi/base/stats.hpp"

namespace sessmpi::pmix {
namespace {

/// Runtime + one client per proc, each driven on its own thread — the same
/// shape as the client_test harness, reused here for modex-order sweeps.
class ModexHarness {
 public:
  explicit ModexHarness(base::Topology topo)
      : topo_(topo), runtime_(topo, base::CostModel::zero()) {
    std::vector<ProcId> world(static_cast<std::size_t>(topo.size()));
    for (int i = 0; i < topo.size(); ++i) {
      world[static_cast<std::size_t>(i)] = i;
    }
    runtime_.psets().define(kPsetWorld, std::move(world));
    for (int r = 0; r < topo.size(); ++r) {
      clients_.push_back(std::make_unique<PmixClient>(runtime_, r));
    }
  }

  [[nodiscard]] int size() const { return topo_.size(); }
  PmixRuntime& runtime() { return runtime_; }
  PmixClient& client(ProcId p) {
    return *clients_[static_cast<std::size_t>(p)];
  }

  void run_all(const std::function<void(PmixClient&, ProcId)>& fn) {
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (int r = 0; r < topo_.size(); ++r) {
      threads.emplace_back([&, r] {
        try {
          fn(client(r), r);
        } catch (...) {
          failed.store(true);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    ASSERT_FALSE(failed.load());
  }

  /// Every proc publishes its endpoint blob (no fence — lazy modex must
  /// work from commit alone).
  void publish_all() {
    run_all([](PmixClient& c, ProcId me) {
      c.put("pml.endpoint", static_cast<std::uint64_t>(me));
      c.commit();
    });
  }

 private:
  base::Topology topo_;
  PmixRuntime runtime_;
  std::vector<std::unique_ptr<PmixClient>> clients_;
};

/// Peers of `me` in a seeded random order — a different first-contact
/// schedule per (seed, rank).
std::vector<ProcId> shuffled_peers(int n, ProcId me, std::uint64_t seed) {
  std::vector<ProcId> peers;
  for (int p = 0; p < n; ++p) {
    if (p != me) {
      peers.push_back(p);
    }
  }
  std::mt19937_64 rng(seed ^ (0x9e3779b97f4a7c15ull *
                              static_cast<std::uint64_t>(me + 1)));
  std::shuffle(peers.begin(), peers.end(), rng);
  return peers;
}

std::uint64_t fetches() {
  return base::counters().value("pmix.modex_lazy_fetches");
}
std::uint64_t hits() {
  return base::counters().value("pmix.modex_cache_hits");
}

TEST(ModexLazy, RandomFirstContactOrderFetchesExactlyOnce) {
  ModexHarness h{{2, 4}};
  h.publish_all();
  const int n = h.size();
  const auto pairs = static_cast<std::uint64_t>(n) * (n - 1);

  // Round 1: every (rank, peer) pair resolves exactly once, whatever the
  // contact order.
  const std::uint64_t f0 = fetches(), h0 = hits();
  h.run_all([n](PmixClient& c, ProcId me) {
    for (ProcId p : shuffled_peers(n, me, 101)) {
      auto v = c.peer_info(p, "pml.endpoint");
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(std::get<std::uint64_t>(v.value()), static_cast<std::uint64_t>(p));
    }
  });
  EXPECT_EQ(fetches() - f0, pairs);
  EXPECT_EQ(hits() - h0, 0u);

  // Rounds 2..4 under different orders: pure cache hits, zero new fetches.
  for (const std::uint64_t seed : {202, 303, 404}) {
    const std::uint64_t f1 = fetches(), h1 = hits();
    h.run_all([n, seed](PmixClient& c, ProcId me) {
      for (ProcId p : shuffled_peers(n, me, seed)) {
        auto v = c.peer_info(p, "pml.endpoint");
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(std::get<std::uint64_t>(v.value()),
                  static_cast<std::uint64_t>(p));
      }
    });
    EXPECT_EQ(fetches() - f1, 0u) << "seed " << seed;
    EXPECT_EQ(hits() - h1, pairs) << "seed " << seed;
  }
}

TEST(ModexLazy, StressSixteenRanksStaysLinearInPairs) {
  // Stress tier: 16 ranks, three full sweeps each under a different seeded
  // order, all clients concurrent. Total fetches must equal the pair count
  // exactly (n^2 - n, not n^2 scaled by rounds) — the all-pairs worst case
  // is still one fetch per pair, and everything after is cache traffic.
  ModexHarness h{{4, 4}};
  h.publish_all();
  const int n = h.size();
  const auto pairs = static_cast<std::uint64_t>(n) * (n - 1);
  const std::uint64_t f0 = fetches(), h0 = hits();
  h.run_all([n](PmixClient& c, ProcId me) {
    for (const std::uint64_t seed : {7, 8, 9}) {
      for (ProcId p : shuffled_peers(n, me, seed)) {
        auto v = c.peer_info(p, "pml.endpoint");
        ASSERT_TRUE(v.ok());
        EXPECT_EQ(std::get<std::uint64_t>(v.value()),
                  static_cast<std::uint64_t>(p));
      }
    }
  });
  EXPECT_EQ(fetches() - f0, pairs);
  EXPECT_EQ(hits() - h0, 2 * pairs);
}

TEST(ModexLazy, PeerDeadBeforePublishFailsFastAndNegativeCaches) {
  ModexHarness h{{1, 4}};
  constexpr ProcId kDead = 3;
  // Procs 0..2 publish; proc 3 dies without ever publishing.
  h.run_all([](PmixClient& c, ProcId me) {
    if (me != kDead) {
      c.put("pml.endpoint", static_cast<std::uint64_t>(me));
      c.commit();
    }
  });
  h.runtime().notify_proc_failed(kDead);

  const std::uint64_t f0 = fetches(), h0 = hits();
  h.run_all([](PmixClient& c, ProcId me) {
    if (me == kDead) {
      return;
    }
    // First lookup: must resolve to rte_proc_failed well inside the 2 s
    // dmodex timeout — the failure check breaks the wait loop, it does not
    // ride it out.
    const auto t0 = std::chrono::steady_clock::now();
    auto v = c.peer_info(kDead, "pml.endpoint");
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.error(), base::ErrClass::rte_proc_failed);
    EXPECT_LT(elapsed, std::chrono::milliseconds(500));

    // Second lookup: negative cache, same answer, no new fetch.
    auto again = c.peer_info(kDead, "pml.endpoint");
    ASSERT_FALSE(again.ok());
    EXPECT_EQ(again.error(), base::ErrClass::rte_proc_failed);
  });
  EXPECT_EQ(fetches() - f0, 3u);  // one dmodex attempt per survivor
  EXPECT_EQ(hits() - h0, 3u);     // one negative-cache hit per survivor
}

TEST(ModexLazy, ContactedThenDiedStillResolvesFromCache) {
  // Drop semantics predate lazy modex: a peer contacted before it died
  // keeps resolving from the per-rank cache (its messages are simply
  // dropped downstream), even though the runtime purges the dead proc's
  // datastore blobs on the failure notice. Only a *never-contacted* dead
  // peer surfaces as rte_proc_failed.
  ModexHarness h{{1, 3}};
  h.publish_all();
  h.run_all([](PmixClient& c, ProcId me) {
    if (me == 2) {
      return;
    }
    auto v = c.peer_info(2, "pml.endpoint");  // first contact, pre-death
    ASSERT_TRUE(v.ok());
  });
  h.runtime().notify_proc_failed(2);  // purges proc 2's datastore blobs
  const std::uint64_t f0 = fetches();
  h.run_all([](PmixClient& c, ProcId me) {
    if (me == 2) {
      return;
    }
    auto v = c.peer_info(2, "pml.endpoint");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(std::get<std::uint64_t>(v.value()), 2u);
  });
  EXPECT_EQ(fetches(), f0);  // cache, not a re-fetch of purged data
}

TEST(ModexLazy, UnpublishedLivePeerTimesOutInsteadOfHanging)  {
  // A live peer that never publishes is a lost dmodex: the wait must end at
  // the caller's deadline with rte_timeout, not block forever.
  ModexHarness h{{1, 2}};
  h.client(0).put("pml.endpoint", std::uint64_t{0});
  h.client(0).commit();
  auto v = h.client(0).peer_info(1, "pml.endpoint",
                                 std::chrono::milliseconds(50));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.error(), base::ErrClass::rte_timeout);
}

// --- Through the MPI path: per-comm resolution reuses the per-rank cache --

TEST(ModexLazy, SecondCommunicatorReusesPerRankCache) {
  const std::uint64_t f0 = fetches();
  std::atomic<std::uint64_t> after_first{0};
  sessmpi::testing::mpi_run(1, 4, [&](sim::Process&) {
    Session s = Session::init();
    Group g = s.group_from_pset("mpi://world");
    const auto ring = [&](Communicator& c, int tag) {
      const int n = c.size(), me = c.rank();
      std::int64_t in = -1, out = me;
      c.sendrecv(&out, 1, Datatype::int64(), (me + 1) % n, tag, &in, 1,
                 Datatype::int64(), (me + n - 1) % n, tag);
      EXPECT_EQ(in, (me + n - 1) % n);
    };
    Communicator a = Communicator::create_from_group(g, "modex_a");
    ring(a, 1);
    a.barrier();
    a.free();
    after_first.store(fetches());
    // A second communicator re-resolves endpoints, but from the per-rank
    // cache: the fetch counter must not move again.
    Communicator b = Communicator::create_from_group(g, "modex_b");
    ring(b, 2);
    b.barrier();
    b.free();
    s.finalize();
  });
  EXPECT_GT(after_first.load(), f0);      // first contact did fetch
  EXPECT_EQ(fetches(), after_first.load());  // second comm: cache only
}

}  // namespace
}  // namespace sessmpi::pmix
