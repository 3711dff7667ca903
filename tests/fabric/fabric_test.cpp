#include "sessmpi/fabric/fabric.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#include "sessmpi/base/clock.hpp"

namespace sessmpi::fabric {
namespace {

Fabric make_fabric(int nodes = 2, int ppn = 2) {
  return Fabric{base::Topology{nodes, ppn}, base::CostModel::zero()};
}

Packet make_packet(base::Rank src, base::Rank dst, int tag = 7) {
  Packet p;
  p.src_rank = src;
  p.dst_rank = dst;
  p.match.tag = tag;
  p.match.src = src;
  return p;
}

TEST(Fabric, DeliversToDestinationEndpoint) {
  auto f = make_fabric();
  f.send(make_packet(0, 3));
  auto got = f.endpoint(3).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->src_rank, 0);
  EXPECT_EQ(got->match.tag, 7);
  EXPECT_FALSE(f.endpoint(0).inbox().try_pop().has_value());
}

TEST(Fabric, PreservesFifoOrderPerDestination) {
  auto f = make_fabric();
  for (int i = 0; i < 10; ++i) {
    f.send(make_packet(0, 1, i));
  }
  for (int i = 0; i < 10; ++i) {
    auto got = f.endpoint(1).inbox().try_pop();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->match.tag, i);
  }
}

TEST(Fabric, PayloadRoundTripsIntact) {
  auto f = make_fabric();
  Packet p = make_packet(1, 2);
  const char msg[] = "sessions";
  p.payload.resize(sizeof(msg));
  std::memcpy(p.payload.data(), msg, sizeof(msg));
  f.send(std::move(p));
  auto got = f.endpoint(2).inbox().try_pop();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->payload.size(), sizeof(msg));
  EXPECT_EQ(std::memcmp(got->payload.data(), msg, sizeof(msg)), 0);
}

TEST(Fabric, InvalidRouteThrows) {
  auto f = make_fabric();
  EXPECT_THROW(f.send(make_packet(0, 99)), base::Error);
  EXPECT_THROW(f.send(make_packet(-1, 0)), base::Error);
  EXPECT_THROW((void)f.endpoint(99), base::Error);
}

TEST(Fabric, SendRejectsAFlowAck) {
  // flow_ack is fabric-internal: only the receive path creates one, so an
  // injected one is refused like an invalid route and touches no flow.
  auto f = make_fabric();
  Packet ack = make_packet(1, 0);
  ack.kind = PacketKind::flow_ack;
  ack.flow.ack = 1;
  try {
    f.send(std::move(ack));
    ADD_FAILURE() << "a flow_ack was accepted by send";
  } catch (const base::Error& e) {
    EXPECT_EQ(e.error_class(), base::ErrClass::rte_bad_param);
  }
  EXPECT_EQ(f.endpoint(0).delivered(), 0u);
  EXPECT_EQ(f.bytes_sent(), 0u);
  std::ostringstream os;
  Fabric::dump_flow_windows(os);
  EXPECT_NE(os.str().find("\"total_flows\":0,"), std::string::npos)
      << os.str();
}

TEST(Fabric, SendsToFailedRankAreDropped) {
  auto f = make_fabric();
  f.mark_failed(1);
  EXPECT_TRUE(f.is_failed(1));
  f.send(make_packet(0, 1));
  EXPECT_FALSE(f.endpoint(1).inbox().try_pop().has_value());
  EXPECT_EQ(f.dropped_to_failed(), 1u);
}

TEST(Fabric, CountsDeliveredAndBytes) {
  auto f = make_fabric();
  Packet p = make_packet(0, 1);
  p.payload.resize(100);
  f.send(std::move(p));
  EXPECT_EQ(f.endpoint(1).delivered(), 1u);
  // The receiver's flow_ack went out before send() returned; quiesce
  // only confirms the sender window is empty.
  ASSERT_TRUE(f.quiesce(std::chrono::seconds(10)));
  const std::uint64_t data_bytes = 100u + kMatchHeaderBytes + kFlowHeaderBytes;
  const std::uint64_t ack_bytes = kFlowHeaderBytes + 2u;
  EXPECT_EQ(f.bytes_sent(), data_bytes + ack_bytes);
  EXPECT_EQ(f.bytes_dropped(), 0u);
  EXPECT_EQ(f.retransmits(), 0u);
}

TEST(Fabric, BlockingPopWakesOnCrossThreadSend) {
  auto f = make_fabric();
  std::thread sender([&f] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    f.send(make_packet(0, 1, 42));
  });
  auto got = f.endpoint(1).inbox().pop_wait(std::chrono::seconds(5));
  sender.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->match.tag, 42);
}

TEST(Fabric, PopWaitTimesOutWhenIdle) {
  auto f = make_fabric();
  auto got = f.endpoint(0).inbox().pop_wait(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.has_value());
}

TEST(Fabric, ConcurrentSendersAllDeliver) {
  auto f = make_fabric(1, 8);
  constexpr int kPer = 50;
  std::vector<std::thread> senders;
  for (int s = 1; s < 8; ++s) {
    senders.emplace_back([&f, s] {
      for (int i = 0; i < kPer; ++i) {
        f.send(make_packet(s, 0, i));
      }
    });
  }
  for (auto& t : senders) {
    t.join();
  }
  EXPECT_EQ(f.endpoint(0).inbox().size(), 7u * kPer);
}

TEST(FabricTiming, SenderChargesOccupancyNotLatency) {
  // Pipelined LogGP model: the sender blocks only for the per-message gap
  // (occupancy); the one-way latency rides on the packet as an arrival
  // deadline that the receiver honors before dispatch.
  base::CostModel cost = base::CostModel::zero();
  cost.net_latency_ns = 5'000'000;  // 5ms: must NOT be charged on the sender
  cost.net_gap_ns = 200'000;        // 200us gap: must be charged on the sender
  Fabric f{base::Topology{2, 1}, cost};
  base::Stopwatch sw;
  const std::int64_t t0 = base::now_ns();
  f.send(make_packet(0, 1));
  const std::int64_t sender_ns = sw.elapsed_ns();
  EXPECT_GE(sender_ns, 200'000);
  EXPECT_LT(sender_ns, 5'000'000);
  auto got = f.endpoint(1).inbox().pop_wait(std::chrono::seconds(5));
  ASSERT_TRUE(got.has_value());
  // Arrival deadline = charge end + one-way latency.
  EXPECT_GE(got->arrival_ns, t0 + 5'000'000);
}

}  // namespace
}  // namespace sessmpi::fabric
