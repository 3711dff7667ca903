#pragma once

// Modeled link-occupancy tracker for ECN marking (DESIGN.md §17).
//
// The cost model charges wire time on sender threads but keeps no shared
// picture of how busy a link is; LinkLoad adds that picture. Every
// transmitted packet charges its serialization time against the modeled
// link it crosses — keyed (src_node, dst_node, rail), since rails are
// distinct physical paths — by advancing a per-link busy-until horizon.
// The charge returns the backlog the packet found queued ahead of it; when
// that exceeds kEcnThresholdNs the fabric sets the CE bit in the
// packet's flow header, the receiver echoes ECE in its next flow_ack, and
// the sender's congestion window does a multiplicative decrease without
// waiting for an actual loss.
//
// Intra-node traffic is never marked: shared-memory "links" have no switch
// queue to fill.

#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "sessmpi/base/topology.hpp"
#include "sessmpi/fabric/fabric.hpp"

namespace sessmpi::sim {

class LinkLoad {
 public:
  /// Charge `serialization_ns` of wire time to the (src_node,dst_node,rail)
  /// link at time `now_ns`. Returns the backlog (ns of queued traffic) the
  /// packet found when it arrived at the link.
  std::int64_t charge(int src_node, int dst_node, std::uint8_t rail,
                      std::int64_t now_ns, std::int64_t serialization_ns);

 private:
  mutable std::mutex mu_;
  /// busy-until horizon per link key; links materialize on first use.
  std::unordered_map<std::uint64_t, std::int64_t> busy_until_;
};

/// Modeled link backlog above which a packet gets the CE bit: 2 ms, a few
/// bulk segments deep at the calibrated inter-node bandwidth and far above
/// anything a healthy flow queues.
inline constexpr std::int64_t kEcnThresholdNs = 2'000'000;

/// True when the cost model gives an inter-node packet non-zero
/// serialization time. Only then can a link build a backlog: with zero
/// serialization (CostModel::zero()) every charge returns 0 and no packet
/// is ever marked, so the cluster installs no marker at all.
[[nodiscard]] bool links_can_queue(const base::CostModel& cost);

/// A Fabric CE marker (set_ce_marker) backed by `load`: charges each
/// sequenced packet's serialization against its modeled link and answers
/// whether the backlog crossed kEcnThresholdNs. `load` must outlive the
/// fabric the marker is installed on.
fabric::Fabric::PacketFilter make_ce_marker(LinkLoad& load,
                                            const base::Topology& topo,
                                            const base::CostModel& cost);

}  // namespace sessmpi::sim
