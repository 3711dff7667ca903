// Multi-rail striping tests (DESIGN.md §17): bulk rndv_data at or above
// fabric.stripe_threshold splits across per-(src,dst,rail) flows with
// segment-level reassembly at the receiver. Property test: random loss and
// reordering round-trip every message bitwise. Accounting test: a lost
// segment charges per-segment counters, not per logical message. The
// concurrent test doubles as the TSan witness for multi-rail ack
// processing (test_fabric runs under the CI thread-sanitizer job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sessmpi/fabric/fabric.hpp"

namespace sessmpi::fabric {
namespace {

using namespace std::chrono_literals;

ReliabilityConfig striped_rel(int rails, std::size_t stripe_threshold,
                              int max_retries = 100) {
  ReliabilityConfig rel;
  rel.tick_ns = 100'000;       // 0.1 ms pump
  rel.rto_base_ns = 500'000;   // 0.5 ms first retransmit
  rel.rto_cap_ns = 2'000'000;  // 2 ms cap
  rel.max_retries = max_retries;
  CcConfig cc;
  cc.rails = rails;
  cc.stripe_threshold = stripe_threshold;
  rel.cc = cc;
  return rel;
}

Fabric make_striped_fabric(int rails, std::size_t stripe_threshold) {
  return Fabric{base::Topology{1, 4}, base::CostModel::zero(),
                striped_rel(rails, stripe_threshold)};
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic payload bytes for message `token` — regenerable at the
/// receiver for a bitwise comparison.
void fill_payload(Payload& payload, std::size_t n, std::uint64_t token) {
  payload.resize(n);
  auto* bytes = payload.data();
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::byte>(splitmix(token * 0x10001 + i) & 0xFF);
  }
}

bool payload_matches(const Payload& payload, std::size_t n,
                     std::uint64_t token) {
  if (payload.size() != n) {
    return false;
  }
  const auto* bytes = payload.data();
  for (std::size_t i = 0; i < n; ++i) {
    if (bytes[i] !=
        static_cast<std::byte>(splitmix(token * 0x10001 + i) & 0xFF)) {
      return false;
    }
  }
  return true;
}

Packet make_bulk(base::Rank src, base::Rank dst, std::uint64_t token,
                 std::size_t n) {
  Packet p;
  p.kind = PacketKind::rndv_data;
  p.src_rank = src;
  p.dst_rank = dst;
  p.token = token;
  fill_payload(p.payload, n, token);
  return p;
}

Fabric::PacketFilter seeded_drop(std::shared_ptr<std::atomic<std::uint64_t>> n,
                                 std::uint64_t seed, double fraction) {
  return [n = std::move(n), seed, fraction](const Packet&) {
    const std::uint64_t x =
        splitmix(seed + 0x9e3779b97f4a7c15ull *
                            (n->fetch_add(1, std::memory_order_relaxed) + 1));
    return static_cast<double>(x >> 11) * 0x1.0p-53 < fraction;
  };
}

TEST(Striping, SegmentsCarryStripeHeadersAndReassembleBitwise) {
  auto f = make_striped_fabric(4, 4096);
  // Uneven total: 4 segments of 2500/2500/2500/2499 bytes exercise the
  // deterministic remainder split.
  constexpr std::size_t kBytes = 9999;
  f.send(make_bulk(0, 1, 7, kBytes));
  ASSERT_TRUE(f.quiesce(60s));
  EXPECT_EQ(f.endpoint(1).delivered(), 1u);  // one logical message
  auto got = f.endpoint(1).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->kind, PacketKind::rndv_data);
  EXPECT_EQ(got->token, 7u);
  EXPECT_FALSE(got->is_striped());  // stripe header consumed by reassembly
  EXPECT_TRUE(payload_matches(got->payload, kBytes, 7));
  // All four rails carried first-transmit bytes, near-evenly.
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(f.rail_striped_bytes(r), kBytes / 4 - 1) << "rail " << r;
  }
}

TEST(Striping, BelowThresholdAndSingleRailStayUnstriped) {
  auto f = make_striped_fabric(4, 4096);
  f.send(make_bulk(0, 1, 3, 4095));  // one byte under the threshold
  ASSERT_TRUE(f.quiesce(60s));
  auto got = f.endpoint(1).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(payload_matches(got->payload, 4095, 3));
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(f.rail_striped_bytes(r), 0u) << "rail " << r;
  }

  auto single = make_striped_fabric(1, 4096);
  single.send(make_bulk(0, 1, 4, 1 << 16));
  ASSERT_TRUE(single.quiesce(60s));
  got = single.endpoint(1).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(payload_matches(got->payload, 1 << 16, 4));
  EXPECT_EQ(single.rail_striped_bytes(0), 0u);  // rails=1 disables striping
}

TEST(Striping, RandomSegmentLossAndReorderRoundTripsBitwise) {
  // Property test: every loss rate must deliver every message exactly
  // once, bitwise intact, whatever segments were lost or overtaken. Loss
  // is confined to the lossy rail's segments by the per-rail windows —
  // healthy rails never stall.
  for (const double loss : {0.05, 0.2}) {
    auto f = make_striped_fabric(4, 2048);
    auto drops = std::make_shared<std::atomic<std::uint64_t>>(0);
    f.set_drop_filter(seeded_drop(drops, 0xabce, loss));
    auto reorders = std::make_shared<std::atomic<std::uint64_t>>(0);
    f.set_reorder_filter(seeded_drop(reorders, 0x5eed, 0.15));
    constexpr int kMessages = 24;
    std::vector<std::size_t> sizes;
    for (int i = 0; i < kMessages; ++i) {
      // Mix of striped (>= 2048) and unstriped sizes, some uneven.
      sizes.push_back(1000 + static_cast<std::size_t>(
                                 splitmix(static_cast<std::uint64_t>(i)) %
                                 20000));
      f.send(make_bulk(0, 1, static_cast<std::uint64_t>(i + 1), sizes.back()));
    }
    ASSERT_TRUE(f.quiesce(120s)) << "loss " << loss;
    f.set_drop_filter(nullptr);
    f.set_reorder_filter(nullptr);
    EXPECT_EQ(f.endpoint(1).delivered(),
              static_cast<std::uint64_t>(kMessages));
    std::vector<bool> seen(kMessages, false);
    for (int i = 0; i < kMessages; ++i) {
      auto got = f.endpoint(1).inbox().try_pop();
      ASSERT_TRUE(got.has_value()) << "message " << i;
      const auto idx = static_cast<std::size_t>(got->token - 1);
      ASSERT_LT(idx, seen.size());
      EXPECT_FALSE(seen[idx]) << "duplicate logical message " << idx;
      seen[idx] = true;
      EXPECT_TRUE(payload_matches(got->payload, sizes[idx], got->token))
          << "message " << idx << " loss " << loss;
    }
    EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
  }
}

TEST(Striping, LostSegmentChargesPerSegmentCounters) {
  // Satellite fix regression: one lost segment of a 4-way-striped message
  // must charge fabric.retransmits once and fabric.bytes_dropped for that
  // segment's bytes — not once (or 4x) per logical message.
  auto f = make_striped_fabric(4, 4096);
  constexpr std::size_t kBytes = 8192;  // 4 segments of 2048
  std::atomic<bool> dropped_one{false};
  f.set_drop_filter([&dropped_one](const Packet& p) {
    if (p.kind == PacketKind::rndv_data && p.flow.rail == 2 &&
        !dropped_one.exchange(true)) {
      return true;
    }
    return false;
  });
  f.send(make_bulk(0, 1, 9, kBytes));
  ASSERT_TRUE(f.quiesce(60s));
  f.set_drop_filter(nullptr);
  EXPECT_EQ(f.chaos_dropped(), 1u);
  EXPECT_EQ(f.retransmits(), 1u);  // only the lost rail's segment resent
  // The dropped bytes are one segment plus its headers — far below the
  // logical message size.
  EXPECT_GE(f.bytes_dropped(), kBytes / 4);
  EXPECT_LT(f.bytes_dropped(), kBytes / 2);
  auto got = f.endpoint(1).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(payload_matches(got->payload, kBytes, 9));
}

TEST(Striping, FlowWindowDumpCarriesCongestionStateAndRail) {
  // Postmortem satellite: fabric.flows must explain a stalled flow —
  // per-rail identity plus cwnd/ssthresh/state — so a collapsed window in
  // recovery is distinguishable from a dead peer.
  auto f = make_striped_fabric(4, 2048);
  // Eat every flow_ack: the striped segments deliver but the sender
  // windows can never retire, so the dump sees live per-rail flows.
  f.set_drop_filter(
      [](const Packet& p) { return p.kind == PacketKind::flow_ack; });
  f.send(make_bulk(0, 1, 5, 8192));
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (f.endpoint(1).delivered() < 1) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(1ms);
  }
  std::ostringstream os;
  Fabric::dump_flow_windows(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("\"rail\":2"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"cwnd\":"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"ssthresh\":"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"state\":\""), std::string::npos) << dump;
  f.set_drop_filter(nullptr);
  ASSERT_TRUE(f.quiesce(60s));
}

TEST(Striping, ConcurrentMultiRailTrafficIsRaceFree) {
  // TSan witness: several sender threads stripe bulk messages in both
  // directions while the pump retransmits and processes per-rail acks
  // concurrently. Run under the CI thread-sanitizer job via test_fabric.
  auto f = make_striped_fabric(4, 2048);
  auto drops = std::make_shared<std::atomic<std::uint64_t>>(0);
  f.set_drop_filter(seeded_drop(drops, 0x7ac3, 0.1));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, t] {
      const base::Rank src = t % 2 == 0 ? 0 : 1;
      const base::Rank dst = 1 - src;
      for (int i = 0; i < kPerThread; ++i) {
        const auto token =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i) + 1;
        f.send(make_bulk(src, dst, token, 6000 + static_cast<std::size_t>(i) * 512));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_TRUE(f.quiesce(120s));
  f.set_drop_filter(nullptr);
  const std::uint64_t expect_each = kThreads / 2 * kPerThread;
  EXPECT_EQ(f.endpoint(0).delivered(), expect_each);
  EXPECT_EQ(f.endpoint(1).delivered(), expect_each);
}

}  // namespace
}  // namespace sessmpi::fabric
