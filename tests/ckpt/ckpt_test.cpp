// Checkpoint/restart subsystem tests: coordinated save, the default (1, 1)
// partner-copy redundancy sets, epoch metadata, revocation interaction,
// re-pairing after a shrink, and the recovery edge cases (dead partner,
// filesystem fallback, empty history). Victims that must share a set are
// picked from ckpt::set_layouts(), never from rank arithmetic.

#include "sessmpi/ckpt/ckpt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "../core/harness.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/capi.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi {
namespace {

using namespace std::chrono_literals;
using testing::world_run;

/// Deterministic per-rank payload: every byte depends on (rank, step, i).
std::vector<std::uint8_t> payload(int rank, int step, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::uint8_t>(31u * static_cast<unsigned>(rank) +
                                     7u * static_cast<unsigned>(step) + i);
  }
  return v;
}

/// The default-shape redundancy set (global ranks) holding `rank` when the
/// whole nodes x ppn world saves.
std::vector<int> world_set_of(int nodes, int ppn, int rank) {
  const base::Topology topo{nodes, ppn};
  std::vector<base::Rank> world(static_cast<std::size_t>(topo.size()));
  std::iota(world.begin(), world.end(), 0);
  for (const auto& set : ckpt::set_layouts(world, topo, 1, 1)) {
    if (set.member_of(rank) >= 0) {
      return set.members;  // comm ranks of the world == global ranks
    }
  }
  return {};
}

/// Wait (as a survivor) until every rank in `dead` is marked failed.
void await_failed(sim::Process& p, const std::vector<int>& dead) {
  for (const int d : dead) {
    while (!p.cluster().fabric().is_failed(d)) {
      std::this_thread::sleep_for(1ms);
    }
  }
}

/// In-place update of a registered buffer. Plain `dst = src` would move the
/// allocation and leave the pointer handed to register_dataset() dangling.
void overwrite(std::vector<std::uint8_t>& dst,
               const std::vector<std::uint8_t>& src) {
  ASSERT_EQ(dst.size(), src.size());
  std::copy(src.begin(), src.end(), dst.begin());
}

TEST(Ckpt, SnapshotCodecRoundTrips) {
  std::map<std::string, std::vector<std::byte>> in;
  in["a"] = {std::byte{1}, std::byte{2}, std::byte{3}};
  in["longer-name"] = {};
  in["z"] = std::vector<std::byte>(1000, std::byte{0x5a});
  const auto blob = ckpt::encode_snapshot(in);
  EXPECT_EQ(ckpt::decode_snapshot(blob), in);

  auto truncated = blob;
  truncated.resize(blob.size() - 1);
  EXPECT_THROW(ckpt::decode_snapshot(truncated), Error);
}

TEST(Ckpt, SaveRestoreRoundTripAndEpochPruning) {
  world_run(1, 4, [](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 0, 256);
    std::uint64_t counter = 0;

    ckpt::Config cfg;
    cfg.keep_epochs = 2;
    ckpt::Checkpointer ck("roundtrip", cfg);
    ck.register_dataset("data", data.data(), data.size());
    ck.register_dataset("counter", &counter, sizeof counter);
    EXPECT_EQ(ck.last_committed(), 0u);

    // Three committed epochs; keep_epochs == 2 prunes the first.
    for (int step = 1; step <= 3; ++step) {
      overwrite(data, payload(me, step, 256));
      counter = static_cast<std::uint64_t>(step);
      EXPECT_EQ(ck.save(comm_world()), static_cast<std::uint64_t>(step));
    }
    EXPECT_EQ(ck.last_committed(), 3u);

    // Clobber the live state, then restore: bitwise back to epoch 3.
    std::fill(data.begin(), data.end(), std::uint8_t{0});
    counter = 999;
    const ckpt::RestoreResult res = ck.restore(comm_world());
    EXPECT_EQ(res.epoch, 3u);
    EXPECT_TRUE(res.adopted.empty());
    EXPECT_EQ(data, payload(me, 3, 256));
    EXPECT_EQ(counter, 3u);
  });
}

TEST(Ckpt, PublishesEpochMetadataThroughPmix) {
  world_run(1, 3, [](sim::Process& p) {
    std::uint64_t x = 42;
    ckpt::Checkpointer ck("meta");
    ck.register_dataset("x", &x, sizeof x);
    ck.save(comm_world());
    comm_world().barrier();  // everyone committed & published
    // Any rank can read any member's committed epoch from the modex.
    const int peer = (static_cast<int>(p.rank()) + 1) % 3;
    auto v = p.pmix_client->get(peer, "ckpt.meta.epoch");
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(std::get<std::uint64_t>(v.value()), 1u);
  });
}

TEST(Ckpt, SaveOnRevokedCommFailsUniformlyWithoutCorruptingEpochs) {
  world_run(1, 3, [](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, 128);
    ckpt::Checkpointer ck("revoked");
    ck.register_dataset("data", data.data(), data.size());

    Communicator comm = comm_world().dup();
    EXPECT_EQ(ck.save(comm), 1u);  // epoch 1 commits normally

    if (me == 0) {
      comm.revoke();
    } else {
      // Observe the revocation the ULFM way: a pending receive poisoned by
      // the incoming flood (progress runs inside the wait) — or, if the
      // flood won the race, the post itself refuses.
      try {
        std::int32_t v = 0;
        Request r = comm.irecv(&v, 1, Datatype::int32(), 0, 11);
        EXPECT_EQ(r.wait().error, ErrClass::comm_revoked);
      } catch (const Error& e) {
        EXPECT_EQ(e.error_class(), ErrClass::comm_revoked);
      }
    }
    EXPECT_TRUE(comm.is_revoked());

    // A save caught by the revocation aborts with comm_revoked on every
    // rank — the vote still runs (agree works on the wreck) so the abort
    // is uniform, and epoch 1 stays intact.
    overwrite(data, payload(me, 2, 128));
    try {
      ck.save(comm);
      FAIL() << "save on a revoked communicator must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrClass::comm_revoked);
      EXPECT_EQ(static_cast<int>(e.error_class()),
                capi::SESSMPI_ERR_COMM_REVOKED);
    }
    EXPECT_EQ(ck.last_committed(), 1u);

    // Restore (over the healthy parent) returns the epoch-1 contents.
    const ckpt::RestoreResult res = ck.restore(comm_world());
    EXPECT_EQ(res.epoch, 1u);
    EXPECT_EQ(data, payload(me, 1, 128));
    comm.free();
  });
}

TEST(Ckpt, RestoreWithNoCommittedEpochFailsCleanly) {
  world_run(1, 3, [](sim::Process&) {
    std::uint64_t x = 7;
    ckpt::Checkpointer ck("empty");
    ck.register_dataset("x", &x, sizeof x);
    try {
      ck.restore(comm_world());
      FAIL() << "restore with no committed epoch must throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrClass::arg);
    }
    EXPECT_EQ(x, 7u);  // registered buffer untouched
    comm_world().barrier();  // the failure left the comm usable
  });
}

TEST(Ckpt, ShrinkRepairsCopiesWithoutReaim) {
  // 2 x 4 with the default (1, 1) shape: one kill, shrink to 7, save again
  // with no call that re-aims the copies, a second kill, and every dead
  // shard still comes back from an in-memory copy — the sets are re-placed
  // from the node map on every save.
  constexpr int kNodes = 2;
  constexpr int kPpn = 4;
  constexpr int kFirst = 5;
  const std::uint64_t parity_before =
      base::counters().value("ckpt.parity_rebuilds");
  std::atomic<int> saved1{0};
  std::atomic<int> saved2{0};
  std::atomic<int> second_victim{-1};
  std::mutex mu;
  std::multiset<std::pair<std::uint64_t, int>> adopted;  // (epoch, owner)
  int from_fs = 0;
  world_run(kNodes, kPpn, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, 48);
    ckpt::Checkpointer ck("reaim");
    ck.register_dataset("data", data.data(), data.size());
    EXPECT_EQ(ck.save(comm_world()), 1u);
    saved1.fetch_add(1);
    if (me == kFirst) {
      while (saved1.load() < kNodes * kPpn) {
        std::this_thread::sleep_for(1ms);
      }
      p.fail();
      return;
    }
    await_failed(p, {kFirst});
    comm_world().ack_failed();
    Communicator seven = comm_world().shrink();
    ASSERT_EQ(seven.size(), 7);
    const auto record = [&](const ckpt::RestoreResult& res) {
      std::lock_guard lk(mu);
      from_fs += res.from_fs;
      for (const auto& shard : res.adopted) {
        const int owner = static_cast<int>(shard.owner);
        adopted.emplace(res.epoch, owner);
        const auto want = payload(owner, static_cast<int>(res.epoch), 48);
        ASSERT_EQ(shard.bytes.size(), want.size());
        EXPECT_EQ(std::memcmp(shard.bytes.data(), want.data(), want.size()),
                  0);
      }
    };
    const ckpt::RestoreResult r1 = ck.restore(seven);
    EXPECT_EQ(r1.epoch, 1u);
    record(r1);

    // Epoch 2 on the 7 survivors. The odd rank out joins a pair as one
    // more data member (XOR), so nobody is left without a copy: kill
    // exactly that rank.
    overwrite(data, payload(me, 2, 48));
    EXPECT_EQ(ck.save(seven), 2u);
    const std::vector<base::Rank> members = seven.group().members();
    const auto sets =
        ckpt::set_layouts(members, p.cluster().topology(), 1, 1);
    ASSERT_EQ(sets.back().size(), 3);
    const int second =
        members[static_cast<std::size_t>(sets.back().members.back())];
    second_victim.store(second);
    saved2.fetch_add(1);
    if (me == second) {
      while (saved2.load() < 7) {
        std::this_thread::sleep_for(1ms);
      }
      p.fail();
      return;
    }
    await_failed(p, {second});
    seven.ack_failed();
    Communicator six = seven.shrink();
    const ckpt::RestoreResult r2 = ck.restore(six);
    EXPECT_EQ(r2.epoch, 2u);
    EXPECT_EQ(data, payload(me, 2, 48));
    record(r2);
    six.free();
    seven.free();
  });
  // Each dead shard was adopted exactly once, from its set's copy.
  const std::multiset<std::pair<std::uint64_t, int>> want{
      {1, kFirst}, {2, second_victim.load()}};
  EXPECT_EQ(adopted, want);
  EXPECT_EQ(from_fs, 0);
  EXPECT_GE(base::counters().value("ckpt.parity_rebuilds"),
            parity_before + 2);
}

TEST(Ckpt, PartnerRebuildAdoptsDeadRanksShard) {
  constexpr int kRanks = 4;
  constexpr int kVictim = 1;
  // The default (1, 1) shape pairs every rank with one partner; the
  // surviving partner holds the copy and adopts the shard.
  const std::vector<int> pair = world_set_of(1, kRanks, kVictim);
  ASSERT_EQ(pair.size(), 2u);
  const int partner = pair[0] == kVictim ? pair[1] : pair[0];
  const std::uint64_t rebuilds_before =
      base::counters().value("ckpt.parity_rebuilds");
  std::atomic<int> saved{0};
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, 64);
    ckpt::Checkpointer ck("partner");
    ck.register_dataset("data", data.data(), data.size());
    ck.save(comm_world());
    saved.fetch_add(1);

    if (me == kVictim) {
      // Die only after every rank committed, so the save itself is clean.
      while (saved.load() < kRanks) {
        std::this_thread::sleep_for(1ms);
      }
      p.fail();
      return;
    }
    await_failed(p, {kVictim});
    // ULFM recipe: revoke, shrink, then restore over the survivors.
    comm_world().ack_failed();
    Communicator survivors = comm_world().shrink();
    const ckpt::RestoreResult res = ck.restore(survivors);
    EXPECT_EQ(res.epoch, 1u);
    EXPECT_EQ(data, payload(me, 1, 64));
    if (me == partner) {
      ASSERT_EQ(res.adopted.size(), 1u);
      EXPECT_EQ(res.adopted[0].owner, kVictim);
      EXPECT_EQ(res.adopted[0].dataset, "data");
      const auto want = payload(kVictim, 1, 64);
      ASSERT_EQ(res.adopted[0].bytes.size(), want.size());
      EXPECT_EQ(std::memcmp(res.adopted[0].bytes.data(), want.data(),
                            want.size()),
                0);
      EXPECT_EQ(res.from_fs, 0);
      EXPECT_EQ(res.from_parity, 1);
    } else {
      EXPECT_TRUE(res.adopted.empty());
    }
    survivors.free();
  });
  EXPECT_GT(base::counters().value("ckpt.parity_rebuilds"), rebuilds_before);
}

TEST(Ckpt, UnrecoverableWhenOwnerAndPartnerBothDieWithoutSpill) {
  constexpr int kRanks = 4;
  // Rank 1 and its partner both die: the shard of rank 1 has no surviving
  // copy and no spill was configured.
  const std::vector<int> dead = world_set_of(1, kRanks, 1);
  ASSERT_EQ(dead.size(), 2u);
  std::atomic<int> saved{0};
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, 32);
    ckpt::Checkpointer ck("lost");
    ck.register_dataset("data", data.data(), data.size());
    ck.save(comm_world());
    saved.fetch_add(1);

    if (std::count(dead.begin(), dead.end(), me) != 0) {
      while (saved.load() < kRanks) {
        std::this_thread::sleep_for(1ms);
      }
      p.fail();
      return;
    }
    await_failed(p, dead);
    comm_world().ack_failed();
    Communicator survivors = comm_world().shrink();
    try {
      ck.restore(survivors);
      FAIL() << "restore must report the unrecoverable shard";
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrClass::rte_not_found);
    }
    // The failed restore is uniform, and the communicator stays usable.
    std::int64_t one = 1;
    std::int64_t sum = 0;
    survivors.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 2);
    survivors.free();
  });
}

TEST(Ckpt, FilesystemSpillRecoversWhenOwnerAndPartnerBothDie) {
  constexpr int kRanks = 6;
  // Victims: rank 1 with its partner (a whole pair: spill only), plus one
  // member of another pair (its partner survives: copy only).
  std::vector<int> dead = world_set_of(1, kRanks, 1);
  ASSERT_EQ(dead.size(), 2u);
  int lone = 0;
  while (std::count(dead.begin(), dead.end(), lone) != 0) {
    ++lone;
  }
  dead.push_back(lone);
  const std::uint64_t fs_before = base::counters().value("ckpt.fs_rebuilds");
  std::atomic<int> saved{0};
  std::mutex mu;
  std::multiset<int> adopted;
  int from_fs = 0;
  int from_parity = 0;
  world_run(1, kRanks, [&](sim::Process& p) {
    const int me = static_cast<int>(p.rank());
    std::vector<std::uint8_t> data = payload(me, 1, 96);
    ckpt::Config cfg;
    cfg.spill_to_fs = true;
    ckpt::Checkpointer ck("spill", cfg);
    ck.register_dataset("data", data.data(), data.size());
    ck.save(comm_world());
    // The spill drains asynchronously; fence so the deaths below can't race
    // an in-flight write (the test wants the durable-spill path, not the
    // cancelled-drain path).
    EXPECT_TRUE(ck.drain_fence());
    saved.fetch_add(1);

    if (std::count(dead.begin(), dead.end(), me) != 0) {
      while (saved.load() < kRanks) {
        std::this_thread::sleep_for(1ms);
      }
      p.fail();
      return;
    }
    await_failed(p, dead);
    comm_world().ack_failed();
    Communicator survivors = comm_world().shrink();
    const ckpt::RestoreResult res = ck.restore(survivors);
    EXPECT_EQ(res.epoch, 1u);
    EXPECT_EQ(data, payload(me, 1, 96));
    std::lock_guard lk(mu);
    from_fs += res.from_fs;
    from_parity += res.from_parity;
    for (const auto& shard : res.adopted) {
      adopted.insert(static_cast<int>(shard.owner));
      const auto want = payload(static_cast<int>(shard.owner), 1, 96);
      ASSERT_EQ(shard.bytes.size(), want.size());
      EXPECT_EQ(std::memcmp(shard.bytes.data(), want.data(), want.size()),
                0);
    }
    survivors.free();
  });
  // The dead pair's shards come off the filesystem spill; the lone
  // victim's comes back the cheap way, from its surviving partner.
  EXPECT_EQ(adopted, std::multiset<int>(dead.begin(), dead.end()));
  EXPECT_EQ(from_fs, 2);
  EXPECT_EQ(from_parity, 1);
  EXPECT_GE(base::counters().value("ckpt.fs_rebuilds"), fs_before + 2);
}

TEST(Ckpt, DrainFenceParksItsFiberNotItsWorker) {
  // One fiber worker carries the rank and a ticker. The rank's spill takes
  // ~200 ms on a slowed SimFs; while the rank waits for it in
  // drain_fence(), the ticker on the same worker must keep finishing 1 ms
  // iterations. A fence that blocked the worker thread would stall it
  // until the spill ended.
  constexpr std::size_t kBytes = 64 * 1024;
  sim::Cluster cluster{testing::zero_opts(1, 1)};
  cluster.fs().set_write_delay_ns_per_byte(3'000);
  sim::Process& proc = cluster.process(0);
  std::atomic<bool> fencing{false};
  std::atomic<bool> fenced{false};
  std::int64_t fence_ns = 0;
  int ticks = 0;

  std::optional<sim::ProcessAdopter> bound;
  std::vector<sim::FiberTask> tasks(2);
  tasks[0].on_resume = [&] { bound.emplace(proc); };
  tasks[0].on_suspend = [&] { bound.reset(); };
  tasks[0].body = [&] {
    cluster.dvm().attach_process(0);
    init();
    {
      std::vector<std::uint8_t> data = payload(0, 1, kBytes);
      ckpt::Config cfg;
      cfg.spill_to_fs = true;
      ckpt::Checkpointer ck("fence-park", cfg);
      ck.register_dataset("data", data.data(), data.size());
      ck.save(comm_world());
      fencing.store(true);
      const std::int64_t t0 = base::now_ns();
      EXPECT_TRUE(ck.drain_fence());
      fence_ns = base::now_ns() - t0;
      fenced.store(true);
    }
    finalize();
  };
  tasks[1].body = [&] {
    while (!fencing.load()) {
      base::precise_delay(100'000);
    }
    while (!fenced.load()) {
      base::precise_delay(1'000'000);
      ++ticks;
    }
  };
  sim::FiberPool::Options opts;
  opts.workers = 1;
  sim::FiberPool::run(std::move(tasks), opts);

  EXPECT_GE(fence_ns, 100'000'000);  // the spill really was slow
  EXPECT_GE(ticks, 20);
}

}  // namespace
}  // namespace sessmpi
