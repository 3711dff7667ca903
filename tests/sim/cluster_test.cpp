#include "sessmpi/sim/cluster.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "sessmpi/base/stats.hpp"
#include "sessmpi/sim/linkload.hpp"

namespace sessmpi::sim {
namespace {

Cluster::Options zero_opts(int nodes, int ppn) {
  Cluster::Options o;
  o.topo = {nodes, ppn};
  o.cost = base::CostModel::zero();
  return o;
}

TEST(Cluster, RunsEveryRankExactlyOnce) {
  Cluster cluster{zero_opts(2, 3)};
  std::mutex mu;
  std::set<Rank> seen;
  cluster.run([&](Process& p) {
    std::lock_guard lock(mu);
    EXPECT_TRUE(seen.insert(p.rank()).second);
  });
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Cluster, ProcessIdentityMatchesTopology) {
  Cluster cluster{zero_opts(2, 2)};
  cluster.run([&](Process& p) {
    EXPECT_EQ(p.node(), p.rank() / 2);
    EXPECT_EQ(p.local_rank(), p.rank() % 2);
    EXPECT_EQ(&Cluster::current(), &p);
  });
}

TEST(Cluster, CurrentThrowsOffRankThreads) {
  EXPECT_EQ(Cluster::current_ptr(), nullptr);
  EXPECT_THROW(Cluster::current(), base::Error);
}

TEST(Cluster, RankExceptionPropagatesAfterJoin) {
  Cluster cluster{zero_opts(1, 2)};
  EXPECT_THROW(
      cluster.run([](Process& p) {
        if (p.rank() == 1) {
          throw base::Error(base::ErrClass::intern, "boom");
        }
      }),
      base::Error);
  EXPECT_TRUE(cluster.aborted());
  EXPECT_TRUE(cluster.fabric().is_failed(1));
}

TEST(Cluster, ThrowingRankDoesNotDeadlockPeersInPmixCollectives) {
  Cluster cluster{zero_opts(1, 2)};
  EXPECT_THROW(
      cluster.run([](Process& p) {
        if (p.rank() == 1) {
          throw base::Error(base::ErrClass::intern, "early death");
        }
        // Rank 0 waits on a fence with the dead rank: the failure oracle
        // must abort it rather than hang the test.
        pmix::PmixClient client{p.cluster().dvm().pmix(), p.rank()};
        auto st = client.fence({0, 1});
        EXPECT_EQ(st.cls, base::ErrClass::rte_proc_failed);
      }),
      base::Error);
}

TEST(Cluster, RunOnSubsetLeavesOthersUntouched) {
  Cluster cluster{zero_opts(1, 4)};
  std::atomic<int> ran{0};
  cluster.run_on({1, 3}, [&](Process& p) {
    EXPECT_TRUE(p.rank() == 1 || p.rank() == 3);
    ++ran;
  });
  EXPECT_EQ(ran.load(), 2);
}

TEST(Cluster, FailRankVisibleToFabricAndPmix) {
  Cluster cluster{zero_opts(1, 2)};
  cluster.fail_rank(1);
  EXPECT_TRUE(cluster.fabric().is_failed(1));
  EXPECT_TRUE(cluster.dvm().pmix().is_failed(1));
  EXPECT_TRUE(cluster.process(1).failed());
  EXPECT_FALSE(cluster.process(0).failed());
}

TEST(Cluster, MessagesFlowBetweenRankThreads) {
  Cluster cluster{zero_opts(2, 1)};
  cluster.run([](Process& p) {
    if (p.rank() == 0) {
      fabric::Packet pkt;
      pkt.src_rank = 0;
      pkt.dst_rank = 1;
      pkt.match.tag = 99;
      p.cluster().fabric().send(std::move(pkt));
    } else {
      auto got = p.endpoint().inbox().pop_wait(std::chrono::seconds(5));
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->match.tag, 99);
    }
  });
}

TEST(Cluster, SecondRunOnSameClusterWorks) {
  Cluster cluster{zero_opts(1, 2)};
  std::atomic<int> count{0};
  cluster.run([&](Process&) { ++count; });
  cluster.run([&](Process&) { ++count; });
  EXPECT_EQ(count.load(), 4);
}

TEST(LinkLoad, ChargeReturnsTheBacklogQueuedAheadOfThePacket) {
  LinkLoad load;
  // Idle link: no backlog; the link is busy until 1000 + 500.
  EXPECT_EQ(load.charge(0, 1, 0, 1'000, 500), 0);
  // 300 ns later the first packet still has 300 ns to go; busy to 2000.
  EXPECT_EQ(load.charge(0, 1, 0, 1'200, 500), 300);
  // Same instant: queued behind both; busy to 2100.
  EXPECT_EQ(load.charge(0, 1, 0, 1'200, 100), 800);
  // The reverse direction and another rail are links of their own.
  EXPECT_EQ(load.charge(1, 0, 0, 1'200, 100), 0);
  EXPECT_EQ(load.charge(0, 1, 1, 1'200, 100), 0);
  // Once the horizon passes the link is idle again; busy to 5100.
  EXPECT_EQ(load.charge(0, 1, 0, 5'000, 100), 0);
  EXPECT_EQ(load.charge(0, 1, 0, 5'050, 100), 50);
}

/// Ranks `senders` each send `per_sender` 256 KiB packets to `receiver`
/// at once on a calibrated `nodes` x `ppn` cluster, which pops them all.
/// Returns the growth of {fabric.ecn_marks, fabric.ecn_decreases}.
std::pair<std::uint64_t, std::uint64_t> ecn_after_burst(
    int nodes, int ppn, const std::vector<Rank>& senders, Rank receiver,
    int per_sender) {
  constexpr std::size_t kBytes = 256 * 1024;
  const std::uint64_t marks0 = base::counters().value("fabric.ecn_marks");
  const std::uint64_t decs0 = base::counters().value("fabric.ecn_decreases");
  Cluster::Options o;
  o.topo = {nodes, ppn};
  Cluster cluster{o};
  EXPECT_NE(cluster.link_load(), nullptr);  // calibrated links can queue
  std::vector<Rank> ranks = senders;
  ranks.push_back(receiver);
  cluster.run_on(ranks, [&](Process& p) {
    if (p.rank() == receiver) {
      const auto total = senders.size() * static_cast<std::size_t>(per_sender);
      for (std::size_t i = 0; i < total; ++i) {
        auto got = p.endpoint().inbox().pop_wait(std::chrono::seconds(10));
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->payload.size(), kBytes);
      }
      return;
    }
    for (int i = 0; i < per_sender; ++i) {
      fabric::Packet pkt;
      pkt.src_rank = p.rank();
      pkt.dst_rank = receiver;
      pkt.match.tag = i;
      pkt.payload = fabric::Payload(kBytes);
      p.cluster().fabric().send(std::move(pkt));
    }
  });
  return {base::counters().value("fabric.ecn_marks") - marks0,
          base::counters().value("fabric.ecn_decreases") - decs0};
}

TEST(Cluster, ConcurrentOffNodeSendersGetEcnMarked) {
  // Each 256 KiB packet occupies the modeled inter-node link for ~1.1 ms.
  // Four senders on node 0 share the node 0 -> node 1 link, so its backlog
  // grows by ~3 packet times per round and crosses the 2 ms marking
  // threshold within the first rounds; the echoed marks then halve the
  // senders' windows.
  ASSERT_EQ(kEcnThresholdNs, 2'000'000);
  const auto [marks, decreases] = ecn_after_burst(2, 4, {0, 1, 2, 3}, 4, 8);
  EXPECT_GT(marks, 0u);
  EXPECT_GT(decreases, 0u);
}

TEST(Cluster, OnNodeTrafficIsNeverEcnMarked) {
  // The same burst between ranks of one node: shared memory has no switch
  // queue, so nothing is marked even though a marker is installed.
  const auto [marks, decreases] = ecn_after_burst(2, 5, {0, 1, 2, 3}, 4, 8);
  EXPECT_EQ(marks, 0u);
  EXPECT_EQ(decreases, 0u);
}

TEST(Cluster, ZeroCostClusterChargesNoLinkModel) {
  // CostModel::zero() serializes every packet in 0 ns, so no link can
  // build a backlog and no packet can be marked: the cluster installs no
  // marker, and off-node traffic never reaches a link model.
  EXPECT_FALSE(links_can_queue(base::CostModel::zero()));
  EXPECT_TRUE(links_can_queue(base::CostModel::calibrated()));
  constexpr int kPackets = 64;
  const std::uint64_t marks0 = base::counters().value("fabric.ecn_marks");
  Cluster cluster{zero_opts(2, 1)};
  EXPECT_EQ(cluster.link_load(), nullptr);
  cluster.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < kPackets; ++i) {
        fabric::Packet pkt;
        pkt.src_rank = 0;
        pkt.dst_rank = 1;  // node 1: off-node
        pkt.match.tag = i;
        pkt.payload = fabric::Payload(64 * 1024);
        p.cluster().fabric().send(std::move(pkt));
      }
      return;
    }
    for (int i = 0; i < kPackets; ++i) {
      auto got = p.endpoint().inbox().pop_wait(std::chrono::seconds(5));
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->match.tag, i);
    }
  });
  EXPECT_EQ(cluster.link_load(), nullptr);
  EXPECT_EQ(cluster.fabric().ecn_marks(), 0u);
  EXPECT_EQ(base::counters().value("fabric.ecn_marks"), marks0);
}

}  // namespace
}  // namespace sessmpi::sim
