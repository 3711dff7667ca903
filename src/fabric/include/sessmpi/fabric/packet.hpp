#pragma once

// Wire-level packet formats.
//
// The fast path mirrors Open MPI's ob1 PML: a compact 14-byte match header
// (receiver-local 16-bit CID, tag, source, sequence number) rides in front of
// the user payload. Sessions-derived communicators additionally prepend an
// 18-byte extended header carrying the 128-bit exCID plus the sender's local
// CID until the receiver's CID ACK arrives (paper §III-B4). The fabric's
// reliable-delivery sublayer (DESIGN.md §9) prepends a 12-byte flow header to
// every packet, and answers every sequenced arrival with a `flow_ack` control
// packet (cumulative + selective ACKs). Header *sizes* are modeled
// explicitly — the cost model charges per header byte — while the in-memory
// representation is an ordinary struct.

#include <cstdint>
#include <vector>

#include "sessmpi/base/topology.hpp"
#include "sessmpi/fabric/payload.hpp"

namespace sessmpi::fabric {

using base::Rank;

enum class PacketKind : std::uint8_t {
  eager,      ///< eager send, fast-path match header only
  eager_ext,  ///< eager send with extended (exCID) header prepended
  cid_ack,    ///< control: receiver tells sender its local CID for a comm
  rndv_rts,   ///< rendezvous ready-to-send (match header, size advertised)
  rndv_rts_ext,  ///< rendezvous RTS with extended header
  rndv_cts,   ///< rendezvous clear-to-send (token)
  rndv_data,  ///< rendezvous bulk data (token)
  sync_ack,   ///< synchronous-send acknowledgement (token)
  comm_revoke,  ///< control: communicator revoked (ULFM); exCID + local CID
  flow_ack,   ///< fabric-internal: cumulative + selective delivery ACK
};

/// 14-byte ob1-style match header (modeled size; see kMatchHeaderBytes).
struct MatchHeader {
  std::uint16_t cid = 0;   ///< local CID in the *receiver's* comm array once
                           ///< the handshake completed; sender's before.
  std::int32_t tag = 0;
  std::int32_t src = 0;    ///< source rank within the communicator
  std::uint32_t seq = 0;   ///< per (comm,peer) sequence number
  /// Causal trace context (DESIGN.md §16): the sender-side span id this
  /// message flows out of, carried as an optional 8-byte ext-header field.
  /// 0 = absent, and absent costs zero wire bytes (header_bytes below), so
  /// a run with tracing disabled is byte-identical on the wire.
  std::uint64_t trace_ctx = 0;
};
inline constexpr std::size_t kMatchHeaderBytes = 14;
/// Modeled bytes for a non-zero MatchHeader::trace_ctx.
inline constexpr std::size_t kTraceCtxBytes = 8;

/// Extended header for sessions-derived communicators (exCID + sender CID).
struct ExtHeader {
  std::uint64_t excid_hi = 0;  ///< PGCID half of the exCID
  std::uint64_t excid_lo = 0;  ///< subfield half of the exCID
  std::uint16_t sender_cid = 0;
};
inline constexpr std::size_t kExtHeaderBytes = 18;

/// Reliable-delivery flow header (12 modeled bytes): a 46-bit
/// per-(src,dst,rail) sequence number, a 46-bit cumulative ACK, a 2-bit
/// rail id, and the two ECN bits (CE set by a congested modeled link, ECE
/// echoed by the receiver in flow_acks; DESIGN.md §17). Only a flow_ack
/// fills `ack`: data packets carry no acknowledgment and leave it 0, so
/// their 6 modeled ack bytes are unused. They are still charged — the
/// layout and every calibrated figure built on it stay as they were.
/// seq == 0 marks an unsequenced packet (flow_ack control traffic, which
/// must not itself be acknowledged).
struct FlowHeader {
  std::uint64_t seq = 0;  ///< flow sequence number; 0 = unsequenced
  std::uint64_t ack = 0;  ///< flow_ack: cumulative ACK of the named flow
  std::uint8_t rail = 0;  ///< rail id within the (src,dst) pair (2 wire bits)
  bool ce = false;        ///< congestion experienced: set by a loaded link
  bool ece = false;       ///< ECN echo: receiver -> sender, in flow_acks
};
inline constexpr std::size_t kFlowHeaderBytes = 12;
/// Modeled bytes per selective-ACK entry in a flow_ack packet.
inline constexpr std::size_t kSackEntryBytes = 6;

/// Striping header carried by rndv_data segments when a bulk message is
/// split across rails (DESIGN.md §17): message id (8) + segment index (2) +
/// segment count (2) + total logical bytes (4). count == 0 marks an
/// unstriped packet and costs zero wire bytes. Segment byte ranges are
/// derived deterministically from (index, count, total_bytes), so offsets
/// and lengths never travel on the wire.
struct StripeHeader {
  std::uint64_t msg_id = 0;   ///< sender-unique id of the logical message
  std::uint16_t index = 0;    ///< this segment's position [0, count)
  std::uint16_t count = 0;    ///< total segments; 0 = not striped
  std::uint32_t total_bytes = 0;  ///< logical message payload size
};
inline constexpr std::size_t kStripeHeaderBytes = 16;

struct Packet {
  PacketKind kind = PacketKind::eager;
  Rank src_rank = -1;  ///< global source rank
  Rank dst_rank = -1;  ///< global destination rank
  MatchHeader match;
  ExtHeader ext;                    ///< valid for *_ext and cid_ack kinds
  FlowHeader flow;                  ///< stamped by the fabric's send path
  StripeHeader stripe;              ///< rndv_data only; count == 0 = unstriped
  std::uint64_t token = 0;          ///< rendezvous / sync-send pairing token
  std::uint64_t advertised_size = 0;  ///< rndv_rts: payload size to come
  std::vector<std::uint64_t> sack;  ///< flow_ack: out-of-order seqs held at rx
  Payload payload;                  ///< refcounted; copying a Packet shares it
  std::int64_t arrival_ns = 0;      ///< sim metadata, not modeled wire bytes:
                                    ///< wall-clock deadline when the packet
                                    ///< "arrives" (sender charge end + one-way
                                    ///< latency); receiver dispatch waits on it

  [[nodiscard]] bool has_ext_header() const noexcept {
    return kind == PacketKind::eager_ext || kind == PacketKind::rndv_rts_ext;
  }

  /// Unsequenced control packets bypass the reliability window (they are
  /// idempotent by construction and must not generate ACKs of ACKs).
  [[nodiscard]] bool is_sequenced() const noexcept {
    return kind != PacketKind::flow_ack;
  }

  /// True when this rndv_data packet is one segment of a striped message.
  [[nodiscard]] bool is_striped() const noexcept { return stripe.count > 0; }

  /// Modeled wire header size in bytes (charged by the cost model). Every
  /// kind pays the flow header: sequenced packets carry their seq;
  /// flow_ack carries cum ACK + entry count + its selective entries.
  /// A non-zero trace context adds kTraceCtxBytes on the kinds that can
  /// carry one (message-bearing kinds + the revoke flood); with tracing
  /// off, trace_ctx stays 0 and the modeled wire is unchanged.
  [[nodiscard]] std::size_t header_bytes() const noexcept {
    const std::size_t tc = match.trace_ctx != 0 ? kTraceCtxBytes : 0;
    switch (kind) {
      case PacketKind::eager:
        return kFlowHeaderBytes + kMatchHeaderBytes + tc;
      case PacketKind::eager_ext:
        return kFlowHeaderBytes + kMatchHeaderBytes + kExtHeaderBytes + tc;
      case PacketKind::rndv_rts:
        return kFlowHeaderBytes + kMatchHeaderBytes + 8 + tc;  // + adv. size
      case PacketKind::rndv_rts_ext:
        return kFlowHeaderBytes + kMatchHeaderBytes + kExtHeaderBytes + 8 + tc;
      case PacketKind::cid_ack:
        return kFlowHeaderBytes + kExtHeaderBytes + 2;  // exCID + receiver CID
      case PacketKind::rndv_cts:
      case PacketKind::sync_ack:
        return kFlowHeaderBytes + 8;  // token
      case PacketKind::rndv_data:
        return kFlowHeaderBytes + 8 + kMatchHeaderBytes + tc +
               (stripe.count > 0 ? kStripeHeaderBytes : 0);
      case PacketKind::comm_revoke:
        // exCID + sender CID
        return kFlowHeaderBytes + kExtHeaderBytes + 2 + tc;
      case PacketKind::flow_ack:
        return kFlowHeaderBytes + 2 + kSackEntryBytes * sack.size();
    }
    return kFlowHeaderBytes + kMatchHeaderBytes;
  }
};

}  // namespace sessmpi::fabric
