// Reliable-delivery sublayer tests: exactly-once in-order delivery under
// seeded loss, duplicate suppression, retry-exhaustion escalation, mid-run
// filter swaps, reordering injection, and the one ACK path: every arrival
// answered before its send returns (DESIGN.md §9).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sessmpi/base/stats.hpp"
#include "sessmpi/fabric/fabric.hpp"

namespace sessmpi::fabric {
namespace {

using namespace std::chrono_literals;

/// Reliability knobs scaled for a zero-cost fabric: microsecond-scale RTOs
/// so lossy tests converge in milliseconds rather than the calibrated
/// defaults' hundreds of milliseconds.
ReliabilityConfig fast_rel(int max_retries = 100) {
  ReliabilityConfig rel;
  rel.tick_ns = 100'000;       // 0.1 ms pump
  rel.rto_base_ns = 500'000;   // 0.5 ms first retransmit
  rel.rto_cap_ns = 2'000'000;  // 2 ms cap
  rel.max_retries = max_retries;
  return rel;
}

Fabric make_fabric(ReliabilityConfig rel = fast_rel()) {
  return Fabric{base::Topology{1, 4}, base::CostModel::zero(), rel};
}

Packet make_packet(base::Rank src, base::Rank dst, int tag) {
  Packet p;
  p.src_rank = src;
  p.dst_rank = dst;
  p.match.src = src;
  p.match.tag = tag;
  return p;
}

/// Seeded Bernoulli filter over a shared packet counter (SplitMix64), the
/// same construction sim::ChaosMonkey uses: deterministic in the sequence
/// of packets examined.
Fabric::PacketFilter seeded_drop(std::shared_ptr<std::atomic<std::uint64_t>> n,
                                 std::uint64_t seed, double fraction) {
  return [n = std::move(n), seed, fraction](const Packet&) {
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ull *
                                 (n->fetch_add(1, std::memory_order_relaxed) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
  };
}

TEST(Reliability, ExactlyOnceInOrderUnderSeededLoss) {
  for (const double fraction : {0.01, 0.1, 0.3}) {
    auto f = make_fabric();
    auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
    f.set_drop_filter(seeded_drop(counter, 0x10c5 + 17, fraction));
    constexpr int kPackets = 400;
    for (int i = 0; i < kPackets; ++i) {
      f.send(make_packet(0, 1, i));
    }
    ASSERT_TRUE(f.quiesce(60s)) << "fraction " << fraction;
    EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets))
        << "fraction " << fraction;
    for (int i = 0; i < kPackets; ++i) {
      auto got = f.endpoint(1).inbox().try_pop();
      ASSERT_TRUE(got.has_value()) << "fraction " << fraction << " i " << i;
      EXPECT_EQ(got->match.tag, i);  // in-order despite loss
    }
    EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
    if (fraction >= 0.1) {
      EXPECT_GT(f.retransmits(), 0u) << "fraction " << fraction;
    }
    EXPECT_EQ(f.rto_escalations(), 0u) << "fraction " << fraction;
  }
}

TEST(Reliability, AdaptiveEnginesPreserveExactlyOnceUnderSeededLoss) {
  // The same seeded-loss contract as above, but with an explicit congestion
  // config whose initial window binds from the first packet: the window
  // must not change delivery semantics, only pacing. At 10% loss the
  // SACK/dup-ack path fires, so most repairs are fast retransmits rather
  // than RTO expiries (DESIGN.md §17).
  ReliabilityConfig rel = fast_rel();
  CcConfig cc;
  cc.initial_window = cc.min_cwnd;
  rel.cc = cc;
  auto f = make_fabric(rel);
  ASSERT_EQ(f.reliability().cc.initial_window, cc.min_cwnd);
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  f.set_drop_filter(seeded_drop(counter, 0x10c5 + 17, 0.1));
  constexpr int kPackets = 400;
  for (int i = 0; i < kPackets; ++i) {
    f.send(make_packet(0, 1, i));
  }
  ASSERT_TRUE(f.quiesce(60s));
  f.set_drop_filter(nullptr);
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    auto got = f.endpoint(1).inbox().try_pop();
    ASSERT_TRUE(got.has_value()) << "i " << i;
    EXPECT_EQ(got->match.tag, i);  // in-order despite loss + windowing
  }
  EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
  EXPECT_GT(f.retransmits(), 0u);
  EXPECT_GT(f.fast_retransmits(), 0u);
  EXPECT_EQ(f.rto_escalations(), 0u);
  EXPECT_EQ(f.unacked(), 0u);
}

TEST(Reliability, LostAcksCauseDupSuppressionNotDoubleDelivery) {
  auto f = make_fabric();
  // Eat every ACK in both directions: data arrives first try, but no
  // sender window can retire (data carries no acknowledgment), so the
  // pump keeps retransmitting already-delivered packets and the senders
  // stall on their windows.
  f.set_drop_filter(
      [](const Packet& p) { return p.kind == PacketKind::flow_ack; });
  constexpr int kPackets = 50;
  std::vector<std::thread> senders;
  for (const Rank src : {0, 1}) {
    senders.emplace_back([&f, src] {
      for (int i = 0; i < kPackets; ++i) {
        f.send(make_packet(src, 1 - src, i));
      }
    });
  }
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (f.dup_suppressed() < 3 || f.endpoint(0).delivered() == 0 ||
         f.endpoint(1).delivered() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  // Nothing retired: every packet delivered so far is still windowed.
  const std::uint64_t delivered =
      f.endpoint(0).delivered() + f.endpoint(1).delivered();
  EXPECT_GE(f.unacked(), delivered);
  // Let the ACKs through; every window retires.
  f.set_drop_filter(nullptr);
  for (auto& t : senders) {
    t.join();
  }
  ASSERT_TRUE(f.quiesce(60s));
  for (const Rank dst : {0, 1}) {
    // Duplicates are never delivered, and each direction stays in order.
    EXPECT_EQ(f.endpoint(dst).delivered(),
              static_cast<std::uint64_t>(kPackets));
    for (int i = 0; i < kPackets; ++i) {
      auto got = f.endpoint(dst).inbox().try_pop();
      ASSERT_TRUE(got.has_value()) << "dst " << dst << " i " << i;
      EXPECT_EQ(got->match.tag, i);
    }
    EXPECT_FALSE(f.endpoint(dst).inbox().try_pop().has_value());
  }
  EXPECT_GE(f.retransmits(), f.dup_suppressed());
  EXPECT_EQ(f.rto_escalations(), 0u);
  EXPECT_EQ(f.unacked(), 0u);
}

TEST(Reliability, RetryExhaustionEscalatesToUnreachable) {
  auto f = make_fabric(fast_rel(/*max_retries=*/2));
  std::atomic<Rank> escalated{-1};
  f.set_unreachable_callback([&](Rank r) {
    escalated.store(r, std::memory_order_relaxed);
  });
  // A black-holed destination: every packet to rank 2 vanishes.
  f.set_drop_filter([](const Packet& p) { return p.dst_rank == 2; });
  f.send(make_packet(0, 2, 1));
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (!f.is_failed(2)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(f.rto_escalations(), 1u);
  EXPECT_EQ(escalated.load(std::memory_order_relaxed), 2);
  // The dead flow is garbage-collected, so the fabric drains.
  EXPECT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(2).delivered(), 0u);
  // Other destinations are unaffected.
  f.send(make_packet(0, 1, 9));
  EXPECT_EQ(f.endpoint(1).delivered(), 1u);
}

TEST(Reliability, DropFilterSwapsSafelyMidRun) {
  auto f = make_fabric();
  constexpr int kPerSender = 300;
  std::vector<std::thread> senders;
  for (const Rank src : {0, 2, 3}) {
    senders.emplace_back([&f, src] {
      for (int i = 0; i < kPerSender; ++i) {
        f.send(make_packet(src, 1, i));
      }
    });
  }
  // Toggle lossiness while the senders hammer the fabric: install, swap,
  // and clear must all be safe against in-flight traffic.
  auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
  for (int round = 0; round < 50; ++round) {
    f.set_drop_filter(seeded_drop(counter, 0xabcd + round, 0.3));
    std::this_thread::sleep_for(200us);
    f.set_drop_filter(nullptr);
    std::this_thread::sleep_for(200us);
  }
  for (auto& t : senders) {
    t.join();
  }
  f.set_drop_filter(nullptr);
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(1).delivered(), 3u * kPerSender);  // exactly once
  // Per-source streams stay in order even across filter swaps.
  std::array<int, 4> next{};
  while (auto got = f.endpoint(1).inbox().try_pop()) {
    EXPECT_EQ(got->match.tag, next[static_cast<std::size_t>(got->src_rank)]++);
  }
  EXPECT_EQ(next[0], kPerSender);
  EXPECT_EQ(next[2], kPerSender);
  EXPECT_EQ(next[3], kPerSender);
}

TEST(Reliability, ReorderInjectionIsInvisibleAboveTheFabric) {
  auto f = make_fabric();
  const std::uint64_t reordered_before = base::counters().value("fabric.reordered");
  // Hold back every third sequenced packet one pump tick so later traffic
  // overtakes it on the wire.
  auto n = std::make_shared<std::atomic<std::uint64_t>>(0);
  f.set_reorder_filter([n](const Packet&) {
    return n->fetch_add(1, std::memory_order_relaxed) % 3 == 2;
  });
  constexpr int kPackets = 90;
  for (int i = 0; i < kPackets; ++i) {
    f.send(make_packet(0, 1, i));
  }
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_GT(base::counters().value("fabric.reordered"), reordered_before);
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets));
  for (int i = 0; i < kPackets; ++i) {
    auto got = f.endpoint(1).inbox().try_pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->match.tag, i);  // reorder buffer restored flow order
  }
}

TEST(Reliability, LosslessBidirectionalTrafficStaysQuiet) {
  auto f = make_fabric();
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds; ++i) {
    f.send(make_packet(0, 1, i));
    f.send(make_packet(1, 0, i));
  }
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(0).delivered(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kRounds));
  // The happy path never touches the recovery machinery.
  EXPECT_EQ(f.retransmits(), 0u);
  EXPECT_EQ(f.dup_suppressed(), 0u);
  EXPECT_EQ(f.rto_escalations(), 0u);
  EXPECT_EQ(f.bytes_dropped(), 0u);
  EXPECT_EQ(f.unacked(), 0u);
}

TEST(Reliability, EveryArrivalIsAckedBeforeSendReturns) {
  // The fabric's one ACK path: deliver() answers each arrival with a
  // flow_ack before the sender's transmit returns. On a lossless fabric no
  // window entry outlives its send, with no pump pass and no quiesce, and
  // there is exactly one ACK per packet.
  auto f = make_fabric();
  const std::uint64_t acks_before = base::counters().value("fabric.acks");
  constexpr int kRounds = 200;
  for (int i = 0; i < kRounds; ++i) {
    f.send(make_packet(0, 1, i));
    ASSERT_EQ(f.unacked(), 0u) << "0 -> 1, round " << i;
    f.send(make_packet(1, 0, i));
    ASSERT_EQ(f.unacked(), 0u) << "1 -> 0, round " << i;
  }
  EXPECT_EQ(base::counters().value("fabric.acks") - acks_before,
            2u * kRounds);
  EXPECT_EQ(f.endpoint(0).delivered(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(f.retransmits(), 0u);
}

TEST(Reliability, DropFilterTogglesFromAThirdThreadDuringTwoSenders) {
  // FilterSlot answers an empty slot from its armed flag without the lock;
  // a third thread flipping the slot under two senders must neither lose
  // a packet nor let one through twice. Installed before the senders
  // start and held until it dropped something, so loss is certain.
  auto f = make_fabric();
  constexpr int kPerSender = 400;
  std::atomic<bool> armed{false};
  std::atomic<int> running{2};
  std::thread toggler([&] {
    auto counter = std::make_shared<std::atomic<std::uint64_t>>(0);
    f.set_drop_filter(seeded_drop(counter, 0x7061, 0.3));
    armed.store(true, std::memory_order_release);
    while (f.chaos_dropped() == 0 &&
           running.load(std::memory_order_acquire) > 0) {
      std::this_thread::yield();
    }
    f.set_drop_filter(nullptr);
    for (std::uint64_t round = 0;
         running.load(std::memory_order_acquire) > 0; ++round) {
      f.set_drop_filter(seeded_drop(counter, 0x7061 + round, 0.3));
      std::this_thread::yield();
      f.set_drop_filter(nullptr);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> senders;
  for (const Rank src : {0, 2}) {
    senders.emplace_back([&f, &armed, &running, src] {
      while (!armed.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kPerSender; ++i) {
        f.send(make_packet(src, 1, i));
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& t : senders) {
    t.join();
  }
  toggler.join();
  f.set_drop_filter(nullptr);
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_GT(f.chaos_dropped(), 0u);
  EXPECT_EQ(f.endpoint(1).delivered(), 2u * kPerSender);  // exactly once
  std::array<int, 4> next{};
  while (auto got = f.endpoint(1).inbox().try_pop()) {
    EXPECT_EQ(got->match.tag, next[static_cast<std::size_t>(got->src_rank)]++);
  }
  EXPECT_EQ(next[0], kPerSender);
  EXPECT_EQ(next[2], kPerSender);
  EXPECT_EQ(f.rto_escalations(), 0u);
}

TEST(Reliability, OneWayTrafficMaterializesOneFlow) {
  // Flows materialize lazily: 0 -> 1 traffic (and the flow_acks it
  // provokes, which travel with the flow they acknowledge) touches the
  // 0 -> 1 flow only.
  auto f = make_fabric();
  constexpr int kPackets = 50;
  for (int i = 0; i < kPackets; ++i) {
    f.send(make_packet(0, 1, i));
  }
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(1).delivered(), static_cast<std::uint64_t>(kPackets));
  std::ostringstream os;
  Fabric::dump_flow_windows(os);
  EXPECT_NE(os.str().find("\"total_flows\":1,"), std::string::npos)
      << os.str();
}

}  // namespace
}  // namespace sessmpi::fabric
