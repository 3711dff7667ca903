// Congestion-control state machine unit tests (DESIGN.md §17): slow start
// -> avoidance -> fast recovery transitions, RTO collapse, and ECN decrease
// with its once-per-window guard. CcState is pure logic, so the tests drive
// it with synthetic acks.

#include "sessmpi/fabric/cc.hpp"

#include <gtest/gtest.h>

namespace sessmpi::fabric {
namespace {

TEST(Cc, SlowStartDoublesPerWindowThenEntersAvoidance) {
  CcConfig cfg;
  cfg.initial_window = 4;
  cfg.max_cwnd = 64;
  CcState cc{cfg};
  EXPECT_EQ(cc.phase(), CcPhase::slow_start);
  EXPECT_EQ(cc.cwnd_packets(), 4u);
  EXPECT_TRUE(cc.can_send(3));
  EXPECT_FALSE(cc.can_send(4));
  // Acking a full window in slow start doubles it (cwnd += acked).
  cc.on_acked(4, 4);
  EXPECT_EQ(cc.cwnd_packets(), 8u);
  EXPECT_EQ(cc.phase(), CcPhase::slow_start);
  // ssthresh defaults to max_cwnd, so growth caps there and flips to
  // congestion avoidance.
  cc.on_acked(8, 12);
  cc.on_acked(16, 28);
  cc.on_acked(32, 60);
  EXPECT_EQ(cc.cwnd_packets(), 64u);
  EXPECT_EQ(cc.phase(), CcPhase::avoidance);
}

TEST(Cc, AimdAvoidanceAddsOnePacketPerAckedWindow) {
  CcConfig cfg;
  cfg.initial_window = 32;
  cfg.max_cwnd = 4096;
  CcState cc{cfg};
  cc.on_acked(32, 32);  // slow start: cwnd 64
  // A loss episode drops into recovery; acking past it lands in avoidance
  // at ssthresh.
  (void)cc.on_dup_ack(100);
  (void)cc.on_dup_ack(100);
  ASSERT_TRUE(cc.on_dup_ack(100));
  cc.on_acked(40, 100);
  ASSERT_EQ(cc.phase(), CcPhase::avoidance);
  const double before = cc.cwnd();
  // One full window's worth of acks in avoidance grows cwnd by ~1 packet.
  cc.on_acked(static_cast<std::uint64_t>(before), 200);
  EXPECT_NEAR(cc.cwnd(), before + 1.0, 0.1);
}

TEST(Cc, TripleDupAckEntersFastRecoveryAndHalvesWindow) {
  CcConfig cfg;
  cfg.initial_window = 32;
  cfg.max_cwnd = 32;
  CcState cc{cfg};
  cc.on_acked(32, 32);  // avoidance at cwnd 32
  ASSERT_EQ(cc.phase(), CcPhase::avoidance);
  EXPECT_FALSE(cc.on_dup_ack(64));  // 1st dup
  EXPECT_FALSE(cc.on_dup_ack(64));  // 2nd dup
  EXPECT_EQ(cc.phase(), CcPhase::avoidance);
  EXPECT_TRUE(cc.on_dup_ack(64));  // 3rd dup: fast retransmit
  EXPECT_EQ(cc.phase(), CcPhase::recovery);
  EXPECT_EQ(cc.cwnd_packets(), 16u);  // beta = 0.5
  EXPECT_EQ(cc.ssthresh(), 16u);
  EXPECT_EQ(cc.recover_seq(), 64u);
  // While in recovery every further dup keeps asking for hole repair.
  EXPECT_TRUE(cc.on_dup_ack(64));
  // A partial ack (cum below recover_seq) does not exit recovery.
  cc.on_acked(4, 40);
  EXPECT_EQ(cc.phase(), CcPhase::recovery);
  // Acking past the loss episode exits to avoidance at ssthresh.
  cc.on_acked(10, 64);
  EXPECT_EQ(cc.phase(), CcPhase::avoidance);
  EXPECT_EQ(cc.cwnd_packets(), 16u);
}

TEST(Cc, RtoCollapsesToMinAndRestartsSlowStartOncePerEpisode) {
  CcConfig cfg;
  cfg.initial_window = 32;
  cfg.max_cwnd = 32;
  cfg.min_cwnd = 2;
  CcState cc{cfg};
  cc.on_acked(32, 32);
  ASSERT_EQ(cc.phase(), CcPhase::avoidance);
  cc.on_rto(64);
  EXPECT_EQ(cc.phase(), CcPhase::slow_start);
  EXPECT_EQ(cc.cwnd_packets(), 2u);
  EXPECT_EQ(cc.ssthresh(), 16u);
  // A second expiry from the same in-flight window must not halve
  // ssthresh again.
  cc.on_rto(64);
  EXPECT_EQ(cc.ssthresh(), 16u);
  EXPECT_EQ(cc.cwnd_packets(), 2u);
  // New data sent past the episode -> a later RTO is a fresh loss event.
  cc.on_acked(2, 66);
  cc.on_rto(80);
  EXPECT_EQ(cc.phase(), CcPhase::slow_start);
  EXPECT_EQ(cc.cwnd_packets(), 2u);
}

TEST(Cc, EcnEchoDecreasesMultiplicativelyOncePerWindow) {
  CcConfig cfg;
  cfg.initial_window = 32;
  cfg.max_cwnd = 32;
  CcState cc{cfg};
  cc.on_acked(32, 32);
  ASSERT_EQ(cc.phase(), CcPhase::avoidance);
  cc.on_ecn_echo(/*cum=*/40, /*highest_sent=*/64);
  EXPECT_EQ(cc.cwnd_packets(), 16u);
  // Echoes for data sent before the decrease are absorbed by the guard:
  // cum has not yet passed the guard seq (64).
  cc.on_ecn_echo(50, 70);
  cc.on_ecn_echo(60, 80);
  EXPECT_EQ(cc.cwnd_packets(), 16u);
  // Once the cumulative ack passes the guard, a new echo bites again.
  cc.on_ecn_echo(64, 90);
  EXPECT_EQ(cc.cwnd_packets(), 8u);
}

TEST(Cc, CwndNeverFallsBelowMinOrAboveMax) {
  CcConfig cfg;
  cfg.initial_window = 4;
  cfg.min_cwnd = 2;
  cfg.max_cwnd = 8;
  CcState cc{cfg};
  for (int i = 0; i < 20; ++i) {
    cc.on_acked(8, static_cast<std::uint64_t>(8 * (i + 1)));
  }
  EXPECT_LE(cc.cwnd_packets(), 8u);
  for (int i = 0; i < 10; ++i) {
    cc.on_rto(1'000 + static_cast<std::uint64_t>(i) * 100);
    cc.on_acked(1, 2'000 + static_cast<std::uint64_t>(i));
  }
  EXPECT_GE(cc.cwnd_packets(), 2u);
}

}  // namespace
}  // namespace sessmpi::fabric
