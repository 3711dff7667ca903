#include "sessmpi/fabric/packet.hpp"

#include <gtest/gtest.h>

namespace sessmpi::fabric {
namespace {

TEST(Packet, FastPathHeaderIsFlowPlus14Bytes) {
  // The ob1 match header the paper describes is 14 bytes; the reliability
  // sublayer prepends its 12-byte flow header (seq, ack, rail, ECN). The
  // per-byte wire charge depends on both staying exact.
  Packet p;
  p.kind = PacketKind::eager;
  EXPECT_EQ(p.header_bytes(), kFlowHeaderBytes + 14u);
}

TEST(Packet, ExtendedHeaderAdds18Bytes) {
  Packet p;
  p.kind = PacketKind::eager_ext;
  EXPECT_EQ(p.header_bytes(), kFlowHeaderBytes + 14u + 18u);
  EXPECT_TRUE(p.has_ext_header());
}

TEST(Packet, RendezvousHeadersAdvertiseSize) {
  Packet rts;
  rts.kind = PacketKind::rndv_rts;
  EXPECT_EQ(rts.header_bytes(), kFlowHeaderBytes + 14u + 8u);
  Packet rts_ext;
  rts_ext.kind = PacketKind::rndv_rts_ext;
  EXPECT_EQ(rts_ext.header_bytes(), kFlowHeaderBytes + 14u + 18u + 8u);
  EXPECT_TRUE(rts_ext.has_ext_header());
}

TEST(Packet, ControlPacketsHaveCompactHeaders) {
  Packet ack;
  ack.kind = PacketKind::cid_ack;
  EXPECT_EQ(ack.header_bytes(), kFlowHeaderBytes + 18u + 2u);
  Packet cts;
  cts.kind = PacketKind::rndv_cts;
  EXPECT_EQ(cts.header_bytes(), kFlowHeaderBytes + 8u);
}

TEST(Packet, FlowAckHeaderGrowsWithSelectiveEntries) {
  Packet ack;
  ack.kind = PacketKind::flow_ack;
  EXPECT_FALSE(ack.is_sequenced());
  EXPECT_EQ(ack.header_bytes(), kFlowHeaderBytes + 2u);
  ack.sack = {4, 7, 9};
  EXPECT_EQ(ack.header_bytes(), kFlowHeaderBytes + 2u + 3u * kSackEntryBytes);
}

TEST(Packet, TraceContextCostsZeroWireBytesWhenAbsent) {
  // The zero-wire-bytes-when-disabled guarantee (DESIGN.md §16): a default
  // packet has trace_ctx == 0 and every header size is exactly its
  // pre-tracing value. These constants are the CI gate — if a change makes
  // an untraced packet carry context bytes, one of these golden sizes
  // moves.
  for (const auto kind :
       {PacketKind::eager, PacketKind::eager_ext, PacketKind::rndv_rts,
        PacketKind::rndv_rts_ext, PacketKind::rndv_data,
        PacketKind::comm_revoke}) {
    Packet p;
    p.kind = kind;
    ASSERT_EQ(p.match.trace_ctx, 0u);
    const std::size_t untraced = p.header_bytes();
    p.match.trace_ctx = 0xabcdef12u;
    EXPECT_EQ(p.header_bytes(), untraced + kTraceCtxBytes)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(Packet, TraceContextGoldenHeaderSizes) {
  Packet p;
  p.match.trace_ctx = 1;
  p.kind = PacketKind::eager;
  EXPECT_EQ(p.header_bytes(), kFlowHeaderBytes + 14u + kTraceCtxBytes);
  p.kind = PacketKind::eager_ext;
  EXPECT_EQ(p.header_bytes(), kFlowHeaderBytes + 14u + 18u + kTraceCtxBytes);
  p.kind = PacketKind::rndv_rts;
  EXPECT_EQ(p.header_bytes(), kFlowHeaderBytes + 14u + 8u + kTraceCtxBytes);
}

TEST(Packet, PureControlPacketsNeverCarryTraceContext) {
  // ACK-class packets are not application messages: no flow edge targets
  // them, so a (stray) context must not change their wire size.
  for (const auto kind : {PacketKind::cid_ack, PacketKind::rndv_cts,
                          PacketKind::sync_ack, PacketKind::flow_ack}) {
    Packet p;
    p.kind = kind;
    const std::size_t untraced = p.header_bytes();
    p.match.trace_ctx = 7;
    EXPECT_EQ(p.header_bytes(), untraced) << "kind " << static_cast<int>(kind);
  }
}

TEST(Packet, EcnAndRailBitsCostZeroWireBytes) {
  // The CE/ECE bits and the 2-bit rail id pack into the four spare bits of
  // the 46+46-bit flow header layout (DESIGN.md §17): setting them must not
  // move any modeled header size, or every modeled wire time shifts. These
  // golden sizes are the CI gate.
  for (const auto kind :
       {PacketKind::eager, PacketKind::eager_ext, PacketKind::rndv_rts,
        PacketKind::rndv_data, PacketKind::flow_ack, PacketKind::comm_revoke}) {
    Packet p;
    p.kind = kind;
    const std::size_t plain = p.header_bytes();
    p.flow.ce = true;
    p.flow.ece = true;
    p.flow.rail = 3;
    EXPECT_EQ(p.header_bytes(), plain) << "kind " << static_cast<int>(kind);
  }
}

TEST(Packet, StripeHeaderAdds16BytesToStripedRndvDataOnly) {
  // A striped segment pays the 16-byte stripe header (msg id + index +
  // count + total); an unstriped rndv_data (count == 0) pays nothing.
  Packet p;
  p.kind = PacketKind::rndv_data;
  const std::size_t unstriped = p.header_bytes();
  EXPECT_FALSE(p.is_striped());
  p.stripe.msg_id = 42;
  p.stripe.index = 1;
  p.stripe.count = 4;
  p.stripe.total_bytes = 1 << 20;
  EXPECT_TRUE(p.is_striped());
  EXPECT_EQ(p.header_bytes(), unstriped + kStripeHeaderBytes);
  EXPECT_EQ(kStripeHeaderBytes, 16u);
}

TEST(Packet, DefaultsAreInert) {
  const Packet p;
  EXPECT_EQ(p.kind, PacketKind::eager);
  EXPECT_FALSE(p.has_ext_header());
  EXPECT_TRUE(p.is_sequenced());
  EXPECT_TRUE(p.payload.empty());
  EXPECT_EQ(p.match.cid, 0u);
  EXPECT_EQ(p.flow.seq, 0u);
  EXPECT_EQ(p.flow.ack, 0u);
  EXPECT_EQ(p.flow.rail, 0u);
  EXPECT_FALSE(p.flow.ce);
  EXPECT_FALSE(p.flow.ece);
  EXPECT_FALSE(p.is_striped());
}

}  // namespace
}  // namespace sessmpi::fabric
