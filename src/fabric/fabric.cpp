#include "sessmpi/fabric/fabric.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>

#include <ostream>

#include "sessmpi/base/buffer_pool.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::fabric {

namespace {

/// Async-event correlation id for one sequenced packet: the trace's
/// "fabric.inflight" span opens at windowing and closes when the ACK
/// erases the entry; retransmits reuse the id so they nest under the
/// owning send on the sender's timeline (DESIGN.md §11).
[[maybe_unused]] std::uint64_t flow_trace_id(Rank src, Rank dst,
                                             std::uint8_t rail,
                                             std::uint64_t seq) {
  return (static_cast<std::uint64_t>(src) << 48) |
         (static_cast<std::uint64_t>(dst) << 32) |
         (static_cast<std::uint64_t>(rail) << 30) | (seq & 0x3FFFFFFFu);
}

/// Live fabrics, for the process-wide `fabric.flow.inflight` gauge and the
/// flight-recorder flow-window section (several simulated clusters can
/// coexist in one test binary). Fabrics deregister first thing in their
/// destructor, so a reader holding reg.mu never sees a dying instance.
struct FabricRegistry {
  std::mutex mu;
  std::vector<Fabric*> live;
};

FabricRegistry& fabric_registry() {
  static FabricRegistry r;
  return r;
}

}  // namespace

void Fabric::dump_flow_windows(std::ostream& os) {
  // Postmortem section: every flow that still has unacked or reordered
  // packets — exactly the state that explains why a rank was declared
  // unreachable. Runs with reg.mu held (blocks fabric teardown) and takes
  // each flow's mutex briefly; callers of escalate_unreachable hold no
  // flow locks, so the failure-path trigger cannot self-deadlock here.
  FabricRegistry& reg = fabric_registry();
  std::lock_guard lock(reg.mu);
  std::uint64_t total_unacked = 0;
  std::size_t total_flows = 0;
  os << "{\"flows\":[";
  bool first = true;
  for (Fabric* fab : reg.live) {
    for (const Flow* f : fab->active_flows()) {
      std::lock_guard flock(f->mu);
      ++total_flows;
      total_unacked += f->window.size();
      if (f->window.empty() && f->reorder.empty()) {
        continue;
      }
      os << (first ? "" : ",") << "{\"src\":" << f->src
         << ",\"dst\":" << f->dst
         << ",\"rail\":" << static_cast<int>(f->rail)
         << ",\"next_seq\":" << f->next_seq
         << ",\"window\":" << f->window.size()
         << ",\"cum_delivered\":" << f->cum_delivered
         << ",\"reorder\":" << f->reorder.size()
         // Congestion state is what explains a stalled flow: a collapsed
         // cwnd in recovery reads very differently from a full window
         // waiting on a dead peer.
         << ",\"cwnd\":" << f->cc.cwnd_packets()
         << ",\"ssthresh\":" << f->cc.ssthresh() << ",\"state\":\""
         << cc_phase_name(f->cc.phase()) << "\"}";
      first = false;
    }
  }
  os << "],\"total_flows\":" << total_flows
     << ",\"total_unacked\":" << total_unacked << "}";
}

Fabric::Fabric(base::Topology topo, base::CostModel cost, ReliabilityConfig rel)
    : topo_(topo),
      cost_(cost),
      rel_(rel),
      failed_(static_cast<std::size_t>(topo.size())) {
  rel_.cc.rails = std::clamp(rel_.cc.rails, 1, kMaxRails);
  const auto n = static_cast<std::size_t>(topo_.size());
  endpoints_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    endpoints_.push_back(std::make_unique<Endpoint>());
    failed_[i].store(0, std::memory_order_relaxed);
  }
  {
    FabricRegistry& reg = fabric_registry();
    std::lock_guard lock(reg.mu);
    reg.live.push_back(this);
  }
  // Expose the payload slab pool's effectiveness as an MPI_T-style gauge
  // (percent of acquires served from a freelist). Process-wide, registered
  // once no matter how many simulated clusters exist; same for the
  // in-flight window gauge and the flight-recorder flow-window section,
  // which sum over every live fabric via the registry.
  static std::once_flag pool_gauge_once;
  std::call_once(pool_gauge_once, [] {
    obs::register_pvar_gauge("fabric.pool_hit_rate", [] {
      return static_cast<std::uint64_t>(
          base::BufferPool::global().stats().hit_rate() * 100.0 + 0.5);
    });
    obs::register_pvar_gauge("fabric.flow.inflight", [] {
      FabricRegistry& reg = fabric_registry();
      std::lock_guard lock(reg.mu);
      std::uint64_t total = 0;
      for (const Fabric* fab : reg.live) {
        total += fab->unacked();
      }
      return total;
    });
    obs::register_postmortem_section("fabric.flows", Fabric::dump_flow_windows);
    // Mean congestion window (packets) over every live flow; 0 when no
    // flow has carried traffic.
    obs::register_pvar_gauge("fabric.cwnd", [] {
      FabricRegistry& reg = fabric_registry();
      std::lock_guard lock(reg.mu);
      std::uint64_t sum = 0;
      std::uint64_t count = 0;
      for (Fabric* fab : reg.live) {
        for (const Flow* f : fab->active_flows()) {
          std::lock_guard flock(f->mu);
          sum += f->cc.cwnd_packets();
          ++count;
        }
      }
      return count == 0 ? 0 : sum / count;
    });
    // Striped-byte spread across rails: (max-min)/max in percent. 0 means
    // balanced (or striping idle); a high value flags a rail whose losses
    // starved it.
    obs::register_pvar_gauge("fabric.rail_imbalance_pct", [] {
      FabricRegistry& reg = fabric_registry();
      std::lock_guard lock(reg.mu);
      std::array<std::uint64_t, kMaxRails> bytes{};
      for (const Fabric* fab : reg.live) {
        for (int r = 0; r < kMaxRails; ++r) {
          bytes[static_cast<std::size_t>(r)] += fab->rail_striped_bytes(r);
        }
      }
      int top = -1;
      for (int r = 0; r < kMaxRails; ++r) {
        if (bytes[static_cast<std::size_t>(r)] > 0) {
          top = r;
        }
      }
      if (top < 1) {
        return std::uint64_t{0};
      }
      std::uint64_t hi = 0;
      std::uint64_t lo = ~std::uint64_t{0};
      for (int r = 0; r <= top; ++r) {
        hi = std::max(hi, bytes[static_cast<std::size_t>(r)]);
        lo = std::min(lo, bytes[static_cast<std::size_t>(r)]);
      }
      return (hi - lo) * 100 / hi;
    });
  });
  pump_ = std::thread([this] { pump_main(); });
}

Fabric::~Fabric() {
  {
    // Deregister before any teardown so the gauge/section never walk a
    // half-destroyed instance.
    FabricRegistry& reg = fabric_registry();
    std::lock_guard lock(reg.mu);
    std::erase(reg.live, this);
  }
  stop_.store(true, std::memory_order_release);
  for (Flow* f : active_flows()) {
    f->word.notify();  // teardown overrides every window wait
  }
  if (pump_.joinable()) {
    pump_.join();
  }
}

namespace {
inline std::uint64_t flow_key(Rank src, Rank dst, std::uint8_t rail) noexcept {
  // 30 bits per rank (sim tops out far below 2^30) + the rail in the top
  // bits, so every (src,dst,rail) triple owns a distinct flow.
  return (static_cast<std::uint64_t>(rail) << 60) |
         ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) &
           0x3FFFFFFFu)
          << 30) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) &
          0x3FFFFFFFu);
}
}  // namespace

Fabric::Flow& Fabric::flow(Rank src, Rank dst, std::uint8_t rail) {
  const std::uint64_t key = flow_key(src, dst, rail);
  FlowShard& shard = flow_shards_[key % kFlowShards];
  {
    std::lock_guard lock(shard.mu);
    auto it = shard.flows.find(key);
    if (it != shard.flows.end()) {
      return *it->second;
    }
  }
  auto fresh = std::make_unique<Flow>(src, dst, rail, rel_.cc);
  Flow* raw = fresh.get();
  {
    std::lock_guard lock(shard.mu);
    auto [it, inserted] = shard.flows.emplace(key, std::move(fresh));
    if (!inserted) {
      return *it->second;  // lost the creation race
    }
  }
  std::lock_guard lock(active_mu_);
  active_.push_back(raw);
  return *raw;
}

std::vector<Fabric::Flow*> Fabric::active_flows() const {
  std::lock_guard lock(active_mu_);
  return active_;
}

Endpoint& Fabric::endpoint(Rank r) {
  if (!topo_.valid_rank(r)) {
    throw base::Error(base::ErrClass::rte_bad_param,
                      "invalid rank for endpoint lookup");
  }
  return *endpoints_[static_cast<std::size_t>(r)];
}

void Fabric::set_unreachable_callback(std::function<void(Rank)> cb) {
  std::lock_guard lock(unreachable_mu_);
  unreachable_cb_ = std::move(cb);
}

void Fabric::set_drop_filter(PacketFilter filter) {
  drop_filter_.set(std::move(filter));
}

void Fabric::set_reorder_filter(PacketFilter filter) {
  reorder_filter_.set(std::move(filter));
}

void Fabric::set_ce_marker(PacketFilter marker) {
  ce_marker_.set(std::move(marker));
}

// ---------------------------------------------------------------------------
// Send path (sender thread)
// ---------------------------------------------------------------------------

void Fabric::send(Packet&& packet) {
  if (!topo_.valid_rank(packet.dst_rank) || !topo_.valid_rank(packet.src_rank)) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid packet route");
  }
  if (!packet.is_sequenced()) {
    throw base::Error(base::ErrClass::rte_bad_param,
                      "flow_ack is fabric-internal");
  }
  if (is_failed(packet.dst_rank)) {
    // A known-dead destination is not a loss event for the reliability
    // layer: the packet is charged (occupancy only — nothing arrives, so
    // no flight latency is modeled), counted, and forgotten (no window).
    const std::size_t sz = packet.header_bytes() + packet.payload.size();
    base::precise_delay(cost_.wire_occupancy(
        topo_.same_node(packet.src_rank, packet.dst_rank),
        packet.payload.size(), packet.header_bytes()));
    dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(sz, std::memory_order_relaxed);
    return;
  }
  if (rel_.cc.rails > 1 && packet.kind == PacketKind::rndv_data &&
      !packet.is_striped() &&
      packet.payload.size() >= rel_.cc.stripe_threshold) {
    // Bulk rendezvous data is the only striped kind: it is matched by
    // token, not arrival order, so per-rail flows cannot reorder it past
    // the MPI non-overtaking guarantee the eager/RTS path depends on.
    send_striped(std::move(packet));
    return;
  }

  const Rank src = packet.src_rank;
  const Rank dst = packet.dst_rank;
  OBS_SPAN_ARG("fabric.send", "fabric", packet.payload.size());
  // The one flow-table lookup of the send: the window, the delivery, the
  // receiver's echo and the RTO arm all reach the flow through `f`.
  Flow& f = flow(src, dst);
  const std::int64_t rto_ns =
      rel_.rto_base_ns + cost_.wire_cost(topo_.same_node(src, dst),
                                         packet.payload.size(),
                                         packet.header_bytes());
  if (!window_packet(f, packet, rto_ns)) {
    return;  // destination died while we waited for window room
  }
  const std::uint64_t seq = packet.flow.seq;
  OBS_ASYNC_BEGIN(src, "fabric.inflight", "fabric",
                  flow_trace_id(src, dst, 0, seq), seq);
  transmit(f, std::move(packet), /*charge_wire=*/true);
  arm_entry(f, seq, rto_ns);
}

bool Fabric::window_packet(Flow& f, Packet& packet, std::int64_t rto_ns) {
  // Acks open the window and notify f.word, and so do the destination's
  // death and teardown.
  bool windowed = false;
  base::wait_until(f.word, [&] {
    std::lock_guard lock(f.mu);
    // Teardown overrides the window: with the pump stopping there may be
    // nobody left to retransmit the packets whose ACKs would open it.
    if (!f.cc.can_send(f.window.size()) &&
        !stop_.load(std::memory_order_relaxed)) {
      return is_failed(f.dst);
    }
    packet.flow.seq = f.next_seq++;
    packet.flow.rail = f.rail;
    Flow::Unacked& entry = f.window[packet.flow.seq];
    entry.pkt = packet;  // retained for retransmission; the refcounted
                         // Payload makes this a header-only copy
    entry.rto_ns = rto_ns;
    entry.retries = 0;
    // Parked until the caller's transmit returns: the RTO clock must start
    // when the packet actually left the wire, not when it was windowed — on
    // an oversubscribed host the sending thread can be descheduled mid-spin
    // for longer than the whole RTO.
    entry.deadline.arm_never();
    // New data in flight opens a fresh silence episode for the tail-loss
    // probe timer.
    f.last_progress_ns = base::now_ns();
    f.tlp_fired = false;
    return windowed = true;
  });
  if (!windowed) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(packet.header_bytes() + packet.payload.size(),
                             std::memory_order_relaxed);
  }
  return windowed;
}

void Fabric::send_striped(Packet&& packet) {
  const Rank src = packet.src_rank;
  const Rank dst = packet.dst_rank;
  const std::size_t total = packet.payload.size();
  const auto nseg = static_cast<std::size_t>(rel_.cc.rails);
  OBS_SPAN_ARG("fabric.send_striped", "fabric", total);
  const bool same_node = topo_.same_node(src, dst);
  const std::uint64_t msg_id =
      next_msg_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::size_t base_len = total / nseg;
  const std::size_t rem = total % nseg;
  struct Seg {
    Flow* flow;
    Packet pkt;
    std::int64_t rto_ns;
  };
  std::vector<Seg> segs;
  segs.reserve(nseg);
  std::int64_t max_occupancy = 0;
  std::size_t off = 0;
  for (std::size_t r = 0; r < nseg; ++r) {
    const std::size_t len = base_len + (r < rem ? 1 : 0);
    Packet seg;
    seg.kind = packet.kind;
    seg.src_rank = src;
    seg.dst_rank = dst;
    seg.match = packet.match;
    seg.ext = packet.ext;
    seg.token = packet.token;
    seg.advertised_size = packet.advertised_size;
    seg.stripe.msg_id = msg_id;
    seg.stripe.index = static_cast<std::uint16_t>(r);
    seg.stripe.count = static_cast<std::uint16_t>(nseg);
    seg.stripe.total_bytes = static_cast<std::uint32_t>(total);
    seg.payload = packet.payload.slice(off, len);  // zero-copy slab share
    off += len;
    const std::size_t hdr = seg.header_bytes();
    max_occupancy =
        std::max(max_occupancy, cost_.wire_occupancy(same_node, len, hdr));
    const std::int64_t rto =
        rel_.rto_base_ns + cost_.wire_cost(same_node, len, hdr);
    Flow& f = flow(src, dst, static_cast<std::uint8_t>(r));
    if (!window_packet(f, seg, rto)) {
      return;  // dst died mid-stripe; the pump GCs the windowed segments
    }
    rail_striped_bytes_[r].fetch_add(len, std::memory_order_relaxed);
    OBS_ASYNC_BEGIN(src, "fabric.inflight", "fabric",
                    flow_trace_id(src, dst, seg.flow.rail, seg.flow.seq),
                    seg.flow.seq);
    segs.push_back({&f, std::move(seg), rto});
  }
  // Rails are parallel paths: the sending thread pays the occupancy of its
  // busiest rail once, not the sum — that is the whole point of striping.
  // Arrival deadlines are pre-stamped so transmit() (charge_wire=false)
  // leaves the parallel-wire model intact per segment.
  base::precise_delay(max_occupancy);
  const std::int64_t arrival = base::now_ns() + cost_.wire_latency(same_node);
  for (Seg& s : segs) {
    const std::uint64_t seq = s.pkt.flow.seq;
    s.pkt.arrival_ns = arrival;
    transmit(*s.flow, std::move(s.pkt), /*charge_wire=*/false);
    arm_entry(*s.flow, seq, s.rto_ns);
  }
}

/// Start (or restart) the RTO clock on a window entry after its transmit
/// completed. The entry may already be gone — acknowledged while the wire
/// time was being charged — in which case there is nothing to time.
void Fabric::arm_entry(Flow& f, std::uint64_t seq, std::int64_t rto_ns) {
  std::lock_guard lock(f.mu);
  auto it = f.window.find(seq);
  if (it == f.window.end()) {
    return;
  }
  it->second.rto_ns = rto_ns;
  it->second.deadline.arm(base::now_ns(), rto_ns);
}

// ---------------------------------------------------------------------------
// Wire + receive path
// ---------------------------------------------------------------------------

bool Fabric::transmit(Flow& f, Packet&& pkt, bool charge_wire) {
  const std::size_t header = pkt.header_bytes();
  const std::size_t payload = pkt.payload.size();
  const std::size_t sz = header + payload;
  if (charge_wire) {
    // Pipelined LogGP wire model: the sending thread pays only its
    // occupancy (gap + serialization); the one-way latency elapses "in
    // flight" — the packet is stamped with its arrival deadline and the
    // receiver's dispatch loop waits it out. Back-to-back sends therefore
    // overlap their latencies (message rate ~ 1/gap), matching how real
    // windowed osu_mbw_mr rates exceed 1/latency.
    const bool same_node = topo_.same_node(pkt.src_rank, pkt.dst_rank);
    base::precise_delay(cost_.wire_occupancy(same_node, payload, header));
    pkt.arrival_ns = base::now_ns() + cost_.wire_latency(same_node);
  }
  if (is_failed(pkt.dst_rank)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(sz, std::memory_order_relaxed);
    return false;
  }
  if (pkt.is_sequenced()) {
    // ECN: the sim's link-load model charges this packet against its
    // modeled link and answers whether the backlog crossed the marking
    // threshold. Runs before the drop filter — a packet lost in flight
    // still occupied the link. flow_acks are exempt (unsequenced, and an
    // echo of an echo would be meaningless).
    if (auto marker = ce_marker_.get(); marker && (*marker)(pkt)) {
      pkt.flow.ce = true;
      ecn_marks_.fetch_add(1, std::memory_order_relaxed);
      static const auto ce_counter = base::counter("fabric.ecn_marks");
      ce_counter.add();
      OBS_INSTANT_ON(pkt.src_rank, "fabric.ecn.mark", "fabric", pkt.flow.seq);
    }
  }
  if (auto filter = drop_filter_.get(); filter && (*filter)(pkt)) {
    chaos_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(sz, std::memory_order_relaxed);
    static const auto chaos_drops_counter =
        base::counter("fabric.chaos.dropped");
    chaos_drops_counter.add();
    OBS_INSTANT_ON(pkt.src_rank, "fabric.chaos_drop", "fabric", pkt.flow.seq);
    return false;
  }
  bytes_sent_.fetch_add(sz, std::memory_order_relaxed);
  if (pkt.is_sequenced()) {
    if (auto filter = reorder_filter_.get(); filter && (*filter)(pkt)) {
      // Reordering injection: hold the packet back one pump tick so later
      // traffic overtakes it on the wire.
      static const auto reorders_counter = base::counter("fabric.reordered");
      reorders_counter.add();
      std::lock_guard lock(held_mu_);
      held_.push_back({&f, std::move(pkt)});
      return true;
    }
  }
  deliver(f, std::move(pkt));
  return true;
}

void Fabric::apply_ack(Flow& f, std::uint64_t cum,
                       const std::vector<std::uint64_t>& sack, bool ece) {
  std::lock_guard lock(f.mu);
  std::uint64_t newly_acked = 0;
  auto stop = f.window.upper_bound(cum);
  for (auto it = f.window.begin(); it != stop; ++it) {
    OBS_ASYNC_END(f.src, "fabric.inflight", "fabric",
                  flow_trace_id(f.src, f.dst, f.rail, it->first));
    ++newly_acked;
  }
  f.window.erase(f.window.begin(), stop);
  for (std::uint64_t s : sack) {
    if (f.window.erase(s) != 0) {
      OBS_ASYNC_END(f.src, "fabric.inflight", "fabric",
                    flow_trace_id(f.src, f.dst, f.rail, s));
      ++newly_acked;
    }
  }
  const std::uint64_t highest_sent = f.next_seq - 1;
  if (newly_acked > 0) {
    f.cc.on_acked(newly_acked, cum);
    f.last_progress_ns = base::now_ns();
    f.tlp_fired = false;
    f.word.notify();  // the window opened
  }
  if (ece) {
    const std::uint64_t before = f.cc.cwnd_packets();
    f.cc.on_ecn_echo(cum, highest_sent);
    if (f.cc.cwnd_packets() < before) {
      static const auto ecn_dec_counter =
          base::counter("fabric.ecn_decreases");
      ecn_dec_counter.add();
      OBS_INSTANT_ON(f.src, "fabric.ecn.decrease", "fabric",
                     f.cc.cwnd_packets());
    }
  }
  bool mark_holes = false;
  if (cum == f.last_cum_seen && !sack.empty() && !f.window.empty() &&
      highest_sent > cum) {
    // Duplicate ack: the cumulative edge is stuck while the receiver holds
    // out-of-order data — evidence of a hole, i.e. loss. The third one
    // triggers fast retransmit + fast recovery (CcState decides).
    mark_holes = f.cc.on_dup_ack(highest_sent);
  } else if (f.cc.phase() == CcPhase::recovery && newly_acked > 0 &&
             cum < f.cc.recover_seq()) {
    // NewReno partial ack: the edge moved but not past the loss episode —
    // the next hole starts right after it; plug it without three more dups.
    mark_holes = true;
  }
  f.last_cum_seen = std::max(f.last_cum_seen, cum);
  if (!mark_holes) {
    return;
  }
  // Fast-retransmit the SACK holes: unacked entries below the highest
  // SACKed seq that the receiver did not report holding. Each hole is
  // fast-retransmitted at most once; if the repair is lost too, the RTO
  // path takes over.
  const std::uint64_t upper =
      sack.empty() ? cum + 1 : *std::max_element(sack.begin(), sack.end());
  for (auto& [seq, entry] : f.window) {
    if (seq > upper) {
      break;
    }
    if (entry.fast_retx || entry.fast_retxed) {
      continue;
    }
    if (std::find(sack.begin(), sack.end(), seq) != sack.end()) {
      continue;
    }
    entry.fast_retx = true;
  }
}

void Fabric::push_to_inbox(Packet&& pkt) {
  Endpoint& ep = *endpoints_[static_cast<std::size_t>(pkt.dst_rank)];
  ep.delivered_.fetch_add(1, std::memory_order_relaxed);
  ep.inbox_.push(std::move(pkt));
}

void Fabric::deliver(Flow& f, Packet&& pkt) {
  if (pkt.kind == PacketKind::flow_ack) {
    // A flow_ack travels with the flow it acknowledges (`f`).
    apply_ack(f, pkt.flow.ack, pkt.sack, pkt.flow.ece);
    return;  // fabric-internal: never reaches the inbox
  }
  // The window is ack-clocked: the sender cannot grow or refill its cwnd
  // until acknowledgments arrive, so batching acks to the pump tick would
  // quantize the whole flow to tick granularity. Every arrival — new,
  // out-of-order or duplicate — is answered with one flow_ack (TCP-style),
  // which also makes dup-acks, the fast-retransmit trigger, immediate. It
  // is built from this arrival's state under the flow mutex and sent after
  // it is released.
  Packet ack;
  ack.kind = PacketKind::flow_ack;
  ack.src_rank = f.dst;  // the ACK travels receiver -> sender
  ack.dst_rank = f.src;
  ack.flow.rail = f.rail;  // names the flow being acknowledged
  // Echo a CE mark (ECE). Duplicates carry the bit too — congestion is
  // congestion.
  ack.flow.ece = pkt.flow.ce;
  {
    std::lock_guard lock(f.mu);
    const std::uint64_t seq = pkt.flow.seq;
    if (seq <= f.cum_delivered || f.reorder.count(seq) != 0) {
      // Retransmit-induced duplicate: suppress it; the echo still retires
      // the sender's window entry.
      dup_suppressed_.fetch_add(1, std::memory_order_relaxed);
      static const auto dups_counter = base::counter("fabric.dup_suppressed");
      dups_counter.add();
    } else if (seq == f.cum_delivered + 1) {
      release_in_order(std::move(pkt));
      f.cum_delivered = seq;
      // Release any contiguous run the gap was holding back.
      auto it = f.reorder.begin();
      while (it != f.reorder.end() && it->first == f.cum_delivered + 1) {
        release_in_order(std::move(it->second));
        f.cum_delivered = it->first;
        it = f.reorder.erase(it);
      }
    } else {
      f.reorder.emplace(seq, std::move(pkt));
    }
    ack.flow.ack = f.cum_delivered;
    for (const auto& [held_seq, held] : f.reorder) {
      if (ack.sack.size() >= kMaxSackEntries) {
        break;
      }
      ack.sack.push_back(held_seq);
    }
  }
  static const auto acks_counter = base::counter("fabric.acks");
  acks_counter.add();
  // v = cumulative ack; v2 = SACK summary, count<<48 | lowest held seq
  // (48 bits of seq is plenty for a sim run; 0 = no out-of-order ranges).
  [[maybe_unused]] const std::uint64_t sack_ranges =
      ack.sack.empty() ? 0
                       : (static_cast<std::uint64_t>(ack.sack.size()) << 48) |
                             (ack.sack.front() & 0xFFFFFFFFFFFFull);
  OBS_INSTANT_ON2(f.dst, "fabric.ack.flush", "fabric", ack.flow.ack,
                  sack_ranges);
  // ACK wire time is not charged: ACKs model NIC-offloaded return-path
  // traffic, so the echo never serializes behind the data it answers.
  transmit(f, std::move(ack), /*charge_wire=*/false);
}

void Fabric::release_in_order(Packet&& pkt) {
  if (pkt.is_striped()) {
    reassemble(std::move(pkt));
    return;
  }
  push_to_inbox(std::move(pkt));
}

void Fabric::reassemble(Packet&& seg) {
  // Per-rail flows guarantee in-order, exactly-once segment release; this
  // merge only has to scatter each segment's bytes to its deterministic
  // offset and count arrivals. Lock order: the caller holds the releasing
  // flow's mutex; reass_mu_ nests inside it and is never taken first.
  const std::size_t count = seg.stripe.count;
  const std::size_t total = seg.stripe.total_bytes;
  const std::size_t idx = seg.stripe.index;
  const std::size_t base_len = total / count;
  const std::size_t rem = total % count;
  const std::size_t off = idx * base_len + std::min(idx, rem);
  const std::size_t len =
      std::min(seg.payload.size(), base_len + (idx < rem ? 1 : 0));
  const std::array<std::uint64_t, 3> key{
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(seg.src_rank)),
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(seg.dst_rank)),
      seg.stripe.msg_id};
  Packet done;
  {
    std::lock_guard lock(reass_mu_);
    PartialMessage& pm = reassembly_[key];
    if (pm.buf.size() != total) {
      pm.buf.resize(total);  // fresh buffer: not a counted payload copy
    }
    if (len > 0) {
      std::memcpy(pm.buf.data() + off, seg.payload.data(), len);
    }
    if (++pm.segments_seen < count) {
      return;
    }
    done = std::move(seg);
    done.payload = std::move(pm.buf);
    done.stripe = StripeHeader{};
    reassembly_.erase(key);
  }
  OBS_INSTANT_ON(done.dst_rank, "fabric.stripe.assembled", "fabric",
                 static_cast<std::uint64_t>(total));
  push_to_inbox(std::move(done));
}

// ---------------------------------------------------------------------------
// Pump: tail-loss probes, timeout-driven retransmission, escalation
// ---------------------------------------------------------------------------

void Fabric::escalate_unreachable(Rank dst) {
  // Claim the escalation first (exactly once per rank), but flip the
  // failed flag last: whoever observes is_failed(dst) also observes the
  // counter, the postmortem and the unreachable callback's announcement.
  if (failed_[static_cast<std::size_t>(dst)].fetch_or(
          kEscalating, std::memory_order_acq_rel) != 0) {
    return;  // already dead or already being escalated
  }
  rto_escalations_.fetch_add(1, std::memory_order_relaxed);
  static const auto escalations_counter =
      base::counter("fabric.rto_escalations");
  escalations_counter.add();
  OBS_INSTANT_ON(dst, "fabric.rto_escalate", "fabric",
                 static_cast<std::uint64_t>(dst));
  // Flight recorder: an unreachable verdict is a root-cause moment — dump
  // before the unreachable callback cascades into revokes and sweeps.
  obs::trigger_postmortem("rto_escalation");
  std::function<void(Rank)> cb;
  {
    std::lock_guard lock(unreachable_mu_);
    cb = unreachable_cb_;
  }
  if (cb) {
    cb(dst);
  }
  mark_failed(dst);
}

bool Fabric::pump_pass() {
  const std::int64_t now = base::now_ns();
  bool busy = false;
  struct RetransmitItem {
    Flow* flow;
    Packet pkt;
    std::uint64_t seq;
    std::int64_t rto_ns;
    bool fast;  ///< dup-ack/SACK-triggered, not an RTO expiry
    bool tlp = false;  ///< tail-loss probe (keeps the original RTO running)
  };
  std::vector<RetransmitItem> to_retransmit;
  std::vector<Rank> to_escalate;

  // Reorder-injected packets held for one tick go out first: they are
  // already past the loss filters and only awaited their delay.
  std::vector<Held> held;
  {
    std::lock_guard lock(held_mu_);
    held.swap(held_);
  }
  for (Held& h : held) {
    deliver(*h.flow, std::move(h.pkt));
  }

  // Only flows that have ever carried traffic exist: the scan is O(active
  // peer pairs) per tick, not O(topo.size()^2).
  const std::vector<Flow*> flows = active_flows();
  for (Flow* fp : flows) {
    Flow& f = *fp;
    bool escalate = false;
    {
      std::lock_guard lock(f.mu);
      if (is_failed(f.dst) || is_failed(f.src)) {
        // A dead endpoint ends the flow: a crashed process neither
        // retransmits nor fills receive-window gaps.
        f.window.clear();
        f.reorder.clear();
        f.word.notify();  // a dead sender's window wait ends too
        continue;
      }
      bool rto_fired = false;
      for (auto& [seq, entry] : f.window) {
        if (entry.fast_retx) {
          // Dup-ack verdict from apply_ack: retransmit now — no RTO wait,
          // no backoff doubling, no retry charge (fast retransmit is
          // repair, not evidence the peer is gone).
          entry.fast_retx = false;
          entry.fast_retxed = true;
          entry.deadline.arm_never();
          to_retransmit.push_back({fp, entry.pkt, seq, entry.rto_ns, true});
          continue;
        }
        // A delivered entry was erased by its echo before arm_entry ran
        // (held packets were delivered at the top of this pass), so an
        // expired entry is one whose packet or echo was lost.
        if (!entry.deadline.expired(now)) {
          continue;
        }
        if (entry.retries >= rel_.max_retries) {
          escalate = true;
          break;
        }
        ++entry.retries;
        entry.rto_ns = std::min(entry.rto_ns * 2, rel_.rto_cap_ns);
        // Parked while the copy below waits its turn on the wire; the
        // retransmit loop re-arms it once its transmit returns.
        entry.deadline.arm_never();
        to_retransmit.push_back({fp, entry.pkt, seq, entry.rto_ns, false});
        rto_fired = true;
      }
      if (rto_fired) {
        // One window collapse per pass, however many entries expired —
        // they are all the same loss episode (CcState guards besides).
        f.cc.on_rto(f.next_seq - 1);
      }
      if (!f.window.empty() && !f.tlp_fired && !rto_fired) {
        // Tail-loss probe (RACK-TLP style): a tail loss — the last packet
        // of a burst, or the repair of an already-fast-retransmitted hole
        // — generates no dup-acks, so SACK recovery cannot see it and the
        // flow would idle out the full RTO. After a short ack silence,
        // retransmit the highest unacked seq once: if the tail was lost
        // this repairs it directly, and otherwise the duplicate provokes
        // an immediate SACK ack that restarts dup-ack recovery. The
        // probe leaves RTO deadlines, retry budgets, and cwnd untouched —
        // it is a probe, not a loss verdict.
        // A parked tail is still being charged its wire time by the
        // sending thread (or waits on a retransmit): the flow is busy, not
        // silent, and no ack can exist for it yet.
        const std::int64_t tlp_ns = std::max<std::int64_t>(
            2 * rel_.tick_ns, rel_.rto_base_ns / 8);
        auto& last = *std::prev(f.window.end());
        if (!last.second.deadline.parked() &&
            now - f.last_progress_ns >= tlp_ns) {
          f.tlp_fired = true;
          to_retransmit.push_back(
              {fp, last.second.pkt, last.first, last.second.rto_ns,
               /*fast=*/false, /*tlp=*/true});
        }
      }
      busy = busy || !f.window.empty() || !f.reorder.empty();
    }
    if (escalate) {
      to_escalate.push_back(f.dst);
    }
  }

  for (Rank d : to_escalate) {
    escalate_unreachable(d);
  }
  for (RetransmitItem& item : to_retransmit) {
    if (is_failed(item.pkt.dst_rank)) {
      continue;
    }
    // Every retransmission — RTO- or dup-ack-triggered, and per striped
    // segment, not per logical message — charges fabric.retransmits, so
    // counter-based CI gates stay truthful under striping.
    retransmits_.fetch_add(1, std::memory_order_relaxed);
    static const auto retx_counter = base::counter("fabric.retransmits");
    retx_counter.add();
    if (item.tlp) {
      tlp_probes_.fetch_add(1, std::memory_order_relaxed);
      static const auto tlp_counter = base::counter("fabric.tlp_probes");
      tlp_counter.add();
      OBS_INSTANT_ON(item.pkt.src_rank, "fabric.tlp_probe", "fabric",
                     item.seq);
    } else if (item.fast) {
      fast_retransmits_.fetch_add(1, std::memory_order_relaxed);
      static const auto fast_counter =
          base::counter("fabric.fast_retransmits");
      fast_counter.add();
      OBS_INSTANT_ON(item.pkt.src_rank, "fabric.fast_retx", "fabric",
                     item.seq);
    } else {
      static obs::Histogram& rto_hist =
          obs::histogram("fabric.rto_backoff_ns");
      rto_hist.record(static_cast<std::uint64_t>(item.rto_ns));
    }
    const Rank s = item.pkt.src_rank;
    const Rank d = item.pkt.dst_rank;
    const std::uint8_t rail = item.pkt.flow.rail;
    // Retransmits occupy the wire like any send; charging them here (on the
    // pump thread) makes benchmarks see the latency cost of loss. The trace
    // charges them to the sending rank's track, nested (same async id)
    // under the owning fabric.inflight span.
    [[maybe_unused]] const std::uint64_t trace_id =
        flow_trace_id(s, d, rail, item.seq);
    [[maybe_unused]] const std::uint64_t retx_bytes =
        item.pkt.payload.size() + item.pkt.header_bytes();
    OBS_ASYNC_BEGIN2(s, "fabric.retransmit", "fabric", trace_id, item.seq,
                     retx_bytes);
    transmit(*item.flow, std::move(item.pkt), /*charge_wire=*/true);
    OBS_ASYNC_END(s, "fabric.retransmit", "fabric", trace_id);
    if (!item.tlp) {
      // A probe is speculative: the original RTO keeps running so a lost
      // probe costs nothing extra. Real retransmits restart the clock.
      arm_entry(*item.flow, item.seq, item.rto_ns);
    }
  }

  return busy || !held.empty();
}

void Fabric::pump_main() {
  while (!stop_.load(std::memory_order_acquire)) {
    pump_pass();
    pumped_.notify();
    std::this_thread::sleep_for(std::chrono::nanoseconds(rel_.tick_ns));
  }
}

bool Fabric::quiesce(std::chrono::nanoseconds timeout) {
  // Re-checked after every pump pass, which delivers the held packets and
  // fires the retransmits this waits out.
  return base::wait_until(
      pumped_,
      [this] {
        {
          std::lock_guard lock(held_mu_);
          if (!held_.empty()) {
            return false;
          }
        }
        const std::vector<Flow*> flows = active_flows();
        return std::none_of(flows.begin(), flows.end(), [](const Flow* f) {
          std::lock_guard lock(f->mu);
          return !f->window.empty() || !f->reorder.empty();
        });
      },
      base::now_ns() + timeout.count());
}

std::uint64_t Fabric::unacked() const {
  std::uint64_t total = 0;
  for (const Flow* f : active_flows()) {
    std::lock_guard lock(f->mu);
    total += f->window.size();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Failure flags
// ---------------------------------------------------------------------------

void Fabric::mark_failed(Rank r) {
  if (!topo_.valid_rank(r) ||
      (failed_[static_cast<std::size_t>(r)].fetch_or(
           kFailed, std::memory_order_release) &
       kFailed) != 0) {
    return;
  }
  failures_.fetch_add(1, std::memory_order_release);
  // The failure notice wakes whoever may wait on the dead rank: senders
  // blocked on a window (all are re-checked) and every rank (its progress
  // sweep and schedule liveness checks), the victim itself included.
  for (Flow* f : active_flows()) {
    f->word.notify();
  }
  for (const auto& ep : endpoints_) {
    ep->inbox_.word().notify();
  }
}

bool Fabric::is_failed(Rank r) const {
  return topo_.valid_rank(r) &&
         (failed_[static_cast<std::size_t>(r)].load(std::memory_order_acquire) &
          kFailed) != 0;
}

}  // namespace sessmpi::fabric
