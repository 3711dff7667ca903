#pragma once

// Redundancy sets for src/ckpt (SCR-style), one erasure code for every
// shape.
//
// Placement (set_layouts). The saving communicator's ranks are ordered
// round-robin across nodes — the first member on each node, then the
// second, and so on — and that order is cut into sets of g = k + m
// members. At uniform procs-per-node a node then holds at most
// ceil(g / nodes) members of any set, so the default (1, 1) pairs always
// span two nodes once there are two. A short tail set of g' members keeps
// m' = min(m, g' - 1) parities over k' = g' - m' data members; a 1-member
// tail instead joins the previous set as one more data member, so no rank
// is ever left without redundancy when n >= 2.
//
// Striping. Within a set, each member's serialized snapshot blob is padded
// to k equal chunks, and the set's chunks are arranged into g rotated
// stripes of k data chunks + m parity chunks — one chunk per member per
// stripe (the RAID-5 rotation, generalized):
//
//   stripe s: data chunk j   lives on member (s + j) mod g      (j < k)
//             parity chunk i lives on member (s + k + i) mod g  (i < m)
//
// Member r therefore contributes its own chunk j to stripe (r - j) mod g
// and stores m parity chunks of ~blob/k bytes each — redundancy cost m/k
// of a full copy. Losing any <= m members loses at most m chunks per
// stripe, which the MDS code recovers from the survivors.
//
// Code. A systematic Cauchy Reed-Solomon code over GF(2^8) whose parity
// row 0 is all ones (base/gf256.hpp, parity_coef): parity 0 is the XOR of
// the data chunks, so RS(k, 1) is RAID-5 and RS(1, 1) is a plain partner
// copy — the shapes need no codec of their own.

#include <cstddef>
#include <vector>

#include "sessmpi/base/topology.hpp"

namespace sessmpi::ckpt {

/// The one redundancy scheme. Kept only because the stack benchmark sets
/// Config::scheme; the next change to the benchmark removes it.
enum class Scheme {
  reed_solomon,
};

/// One redundancy set: its `members` (comm ranks of the saving
/// communicator, in member-index order), striped as `data` + `parity`
/// chunks (data + parity == size()).
struct SetLayout {
  std::vector<int> members;
  int data = 0;
  int parity = 0;

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(members.size());
  }
  /// Member index of `comm_rank`, or -1 when it is not in this set.
  [[nodiscard]] int member_of(int comm_rank) const noexcept;
  /// Member index holding data chunk j of stripe s.
  [[nodiscard]] int data_member(int s, int j) const noexcept {
    return (s + j) % size();
  }
  /// Member index holding parity chunk i of stripe s.
  [[nodiscard]] int parity_member(int s, int i) const noexcept {
    return (s + data + i) % size();
  }
  /// Stripe that member `idx`'s own chunk j belongs to.
  [[nodiscard]] int stripe_of_chunk(int idx, int j) const noexcept {
    return (idx - j + size()) % size();
  }
  /// Parity index member `idx` holds in stripe s, or -1 if it holds a data
  /// chunk there (every member holds exactly one chunk of every stripe).
  [[nodiscard]] int parity_index(int s, int idx) const noexcept {
    const int pos = (idx - s + size()) % size();
    return pos >= data ? pos - data : -1;
  }
};

/// Partition a communicator into redundancy sets of (k data + m parity)
/// members, placed by the node map as described above. `members` are the
/// communicator's global ranks by comm rank; `topo` maps them to nodes.
/// A pure function: every rank computes the same sets. Throws Error(arg)
/// when k < 1 or m < 0.
[[nodiscard]] std::vector<SetLayout> set_layouts(
    const std::vector<base::Rank>& members, const base::Topology& topo, int k,
    int m);

/// Stripe-level erasure codec: k data chunks, m parity chunks, all of one
/// length. Stateless and thread-safe.
class SetCodec {
 public:
  /// Throws Error(arg) on an invalid shape: k < 1, m < 0, or k + m > 254
  /// (the Cauchy evaluation-point budget in GF(2^8)).
  SetCodec(int k, int m);

  [[nodiscard]] int k() const noexcept { return k_; }
  [[nodiscard]] int m() const noexcept { return m_; }

  /// Parity chunk `pi` of one stripe from its k data chunks.
  void encode(int pi, const std::byte* const* data, std::size_t len,
              std::byte* out) const;

  /// Reconstruct the missing data chunks of one stripe in place.
  /// `data[j]` are the k data chunk buffers; `data_ok[j]` marks which ones
  /// survived (missing ones are overwritten with the reconstruction).
  /// `parity[i]` is the i-th parity chunk or nullptr if lost. Returns
  /// false when more data chunks are missing than parity chunks survive
  /// (beyond the code's tolerance) — nothing is written in that case.
  bool reconstruct(std::byte* const* data, const bool* data_ok,
                   const std::byte* const* parity, std::size_t len) const;

 private:
  int k_;
  int m_;
};

}  // namespace sessmpi::ckpt
