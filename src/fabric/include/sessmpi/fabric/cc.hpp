#pragma once

// Per-flow congestion control for the reliable-delivery sublayer
// (DESIGN.md §17). Every (src,dst,rail) flow owns a CcState running one
// TCP-NewReno-shaped engine: slow start from IW, ssthresh halving + fast
// retransmit on the kDupAckThreshold'th duplicate ACK (SACK holes are
// plugged immediately), additive increase of ~1 packet per ACKed cwnd in
// avoidance, and a multiplicative decrease on an ECN echo. Tail losses
// that raise no dup-acks are repaired by the Fabric's tail-loss probe;
// the RTO is the last resort.
//
// CcState is pure state-machine logic — no locks, no clocks, no wire — so
// the unit tests drive transitions directly with synthetic acks. The Fabric
// serializes calls under the owning flow's mutex. Its CcConfig comes from
// ReliabilityConfig::cc, the one source of the window and rail policy.

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace sessmpi::fabric {

/// Maximum rails per (src,dst) pair: the rail id travels in 2 spare bits of
/// the modeled 12-byte flow header (DESIGN.md §17 wire format).
inline constexpr int kMaxRails = 4;

/// Consecutive duplicate ACKs that trigger fast retransmit (RFC 5681).
inline constexpr int kDupAckThreshold = 3;

struct CcConfig {
  /// Slow-start initial window (packets), RFC 6928-style IW10.
  std::uint32_t initial_window = 10;
  /// Floor the window never decreases below (keeps a stalled flow probing).
  std::uint32_t min_cwnd = 2;
  /// Cap on cwnd growth (packets). Bounds sender-side window memory.
  std::uint32_t max_cwnd = 4096;
  /// Rails (per-pair endpoints) available for striping; 1 = striping off.
  int rails = 1;
  /// Messages at or above this payload size are striped across `rails`
  /// (only bulk rndv_data — matched by token, so cross-rail reorder never
  /// reaches the MPI matching order).
  std::size_t stripe_threshold = 256 * 1024;
};

enum class CcPhase : std::uint8_t { slow_start, avoidance, recovery };

inline const char* cc_phase_name(CcPhase p) noexcept {
  switch (p) {
    case CcPhase::slow_start:
      return "slow_start";
    case CcPhase::avoidance:
      return "avoidance";
    case CcPhase::recovery:
      return "recovery";
  }
  return "?";
}

/// Congestion window state machine for one flow.
class CcState {
 public:
  CcState() = default;
  explicit CcState(const CcConfig& cfg)
      : cfg_(cfg),
        cwnd_(cfg.initial_window),
        ssthresh_(cfg.max_cwnd) {}

  [[nodiscard]] std::uint64_t cwnd_packets() const noexcept {
    return std::max<std::uint64_t>(cfg_.min_cwnd,
                                   static_cast<std::uint64_t>(cwnd_));
  }
  [[nodiscard]] double cwnd() const noexcept { return cwnd_; }
  [[nodiscard]] std::uint64_t ssthresh() const noexcept { return ssthresh_; }
  [[nodiscard]] CcPhase phase() const noexcept { return phase_; }

  /// May the sender window another packet with `inflight` already unacked?
  [[nodiscard]] bool can_send(std::size_t inflight) const noexcept {
    return inflight < cwnd_packets();
  }

  /// `newly_acked` window entries retired (cumulative advance + SACK
  /// erasures); `cum` is the new cumulative ack. Growth happens here;
  /// recovery exits here once the loss episode's data is fully acked.
  void on_acked(std::uint64_t newly_acked, std::uint64_t cum) {
    if (newly_acked == 0) {
      return;
    }
    if (phase_ == CcPhase::recovery) {
      if (cum < recover_seq_) {
        return;  // partial ack: still recovering, no growth
      }
      phase_ = CcPhase::avoidance;
      cwnd_ = static_cast<double>(ssthresh_);
      dup_acks_ = 0;
    }
    if (phase_ == CcPhase::slow_start) {
      cwnd_ += static_cast<double>(newly_acked);
      if (cwnd_ >= static_cast<double>(ssthresh_)) {
        cwnd_ = static_cast<double>(ssthresh_);
        phase_ = CcPhase::avoidance;
      }
    } else {
      // Additive increase: +1 packet per ACKed window's worth of data.
      cwnd_ += static_cast<double>(newly_acked) / std::max(cwnd_, 1.0);
    }
    clamp();
  }

  /// A duplicate ack (explicit flow_ack whose cumulative ack did not move
  /// while data is in flight). Returns true when the caller should fast-
  /// retransmit the unSACKed holes: on the kDupAckThreshold'th duplicate
  /// (entering fast recovery), and on every further duplicate while in
  /// recovery (SACK keeps exposing new holes).
  [[nodiscard]] bool on_dup_ack(std::uint64_t highest_sent) {
    if (phase_ == CcPhase::recovery) {
      return true;
    }
    if (++dup_acks_ < kDupAckThreshold) {
      return false;
    }
    multiplicative_decrease();
    phase_ = CcPhase::recovery;
    recover_seq_ = highest_sent;
    dup_acks_ = 0;
    return true;
  }

  /// A retransmission timeout fired on this flow: the network gave no
  /// feedback for a full RTO, so collapse to min_cwnd and slow-start back.
  /// Guarded per loss episode — a burst of same-window expiries in one pump
  /// pass must not stack collapses.
  void on_rto(std::uint64_t highest_sent) {
    if (highest_sent <= recover_seq_ && phase_ == CcPhase::slow_start) {
      return;  // same episode, already collapsed
    }
    ssthresh_ = std::max<std::uint64_t>(
        static_cast<std::uint64_t>(cwnd_ / 2.0), cfg_.min_cwnd);
    cwnd_ = static_cast<double>(cfg_.min_cwnd);
    phase_ = CcPhase::slow_start;
    recover_seq_ = highest_sent;
    dup_acks_ = 0;
  }

  /// Receiver echoed a CE mark (congestion experienced on a modeled link):
  /// multiplicative decrease without waiting for loss. At most once per
  /// in-flight window — echoes for data sent before the last decrease are
  /// ignored, mirroring TCP's CWR round.
  void on_ecn_echo(std::uint64_t cum, std::uint64_t highest_sent) {
    if (phase_ == CcPhase::recovery) {
      return;
    }
    if (cum < ecn_guard_seq_) {
      return;  // this echo is for data sent before the last decrease
    }
    multiplicative_decrease();
    ecn_guard_seq_ = highest_sent;
  }

  /// First seq of the current loss episode's tail (recovery exits when the
  /// cumulative ack reaches it).
  [[nodiscard]] std::uint64_t recover_seq() const noexcept {
    return recover_seq_;
  }
  [[nodiscard]] int dup_acks() const noexcept { return dup_acks_; }

  static constexpr double kBeta = 0.5;

 private:
  void multiplicative_decrease() {
    cwnd_ = std::max(cwnd_ * kBeta, static_cast<double>(cfg_.min_cwnd));
    ssthresh_ = std::max<std::uint64_t>(static_cast<std::uint64_t>(cwnd_),
                                        cfg_.min_cwnd);
    phase_ = phase_ == CcPhase::slow_start ? CcPhase::avoidance : phase_;
  }

  void clamp() noexcept {
    cwnd_ = std::clamp(cwnd_, static_cast<double>(cfg_.min_cwnd),
                       static_cast<double>(cfg_.max_cwnd));
  }

  CcConfig cfg_;
  double cwnd_ = 10.0;
  std::uint64_t ssthresh_ = 4096;
  CcPhase phase_ = CcPhase::slow_start;
  int dup_acks_ = 0;
  std::uint64_t recover_seq_ = 0;   ///< loss episode tail (NewReno "recover")
  std::uint64_t ecn_guard_seq_ = 0;  ///< one ECN decrease per window guard
};

}  // namespace sessmpi::fabric
