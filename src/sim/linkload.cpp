#include "sessmpi/sim/linkload.hpp"

#include <algorithm>
#include <limits>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/cost_model.hpp"

namespace sessmpi::sim {

namespace {
inline std::uint64_t link_key(int src_node, int dst_node,
                              std::uint8_t rail) noexcept {
  return (static_cast<std::uint64_t>(rail) << 60) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src_node)) &
           0x3FFFFFFFu)
          << 30) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst_node)) &
          0x3FFFFFFFu);
}
}  // namespace

std::int64_t LinkLoad::charge(int src_node, int dst_node, std::uint8_t rail,
                              std::int64_t now_ns,
                              std::int64_t serialization_ns) {
  const std::uint64_t key = link_key(src_node, dst_node, rail);
  std::lock_guard lock(mu_);
  std::int64_t& busy = busy_until_[key];
  const std::int64_t backlog = std::max<std::int64_t>(0, busy - now_ns);
  busy = std::max(busy, now_ns) + serialization_ns;
  return backlog;
}

bool links_can_queue(const base::CostModel& cost) {
  // The largest payload a packet can carry (StripeHeader::total_bytes is
  // 32-bit) behind a flow header: if even that serializes in 0 ns, so does
  // every packet.
  return cost.wire_occupancy(/*same_node=*/false,
                             std::numeric_limits<std::uint32_t>::max(),
                             fabric::kFlowHeaderBytes) > 0;
}

fabric::Fabric::PacketFilter make_ce_marker(LinkLoad& load,
                                            const base::Topology& topo,
                                            const base::CostModel& cost) {
  return [&load, topo, cost](const fabric::Packet& pkt) {
    if (topo.same_node(pkt.src_rank, pkt.dst_rank)) {
      return false;  // shared memory has no switch queue to mark
    }
    const std::int64_t serialization = cost.wire_occupancy(
        /*same_node=*/false, pkt.payload.size(), pkt.header_bytes());
    const std::int64_t backlog =
        load.charge(topo.node_of(pkt.src_rank), topo.node_of(pkt.dst_rank),
                    pkt.flow.rail, base::now_ns(), serialization);
    return backlog > kEcnThresholdNs;
  };
}

}  // namespace sessmpi::sim
