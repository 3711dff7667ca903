#pragma once

// Per-communicator plans for the collective engine (DESIGN.md §13). The
// topology plan groups comm ranks by the node hosting them, from the sim
// cluster's node/socket layout; the flat plan, selected by
// "coll.algorithm=flat", puts every rank on a node of its own. The schedule
// builders read either one, so flat and hierarchical collectives differ
// only in the plan they get. Plans are built lazily on the first
// collective, cached on the CommState, and dropped on revoke — a
// post-shrink communicator is a fresh CommState, so membership changes
// always rebuild them.

#include <memory>
#include <vector>

#include "sessmpi/base/node_layout.hpp"
#include "sessmpi/coll/shm.hpp"

namespace sessmpi::detail {
struct CommState;
struct ProcState;
}  // namespace sessmpi::detail

namespace sessmpi::coll {

struct Plan {
  int nranks = 0;
  int myrank = -1;

  /// Comm rank -> (node, slot) as node runs; nodes are indexed in
  /// ascending node id, slots ascending by comm rank. Identical on every
  /// member, and O(nodes) in size.
  base::NodeLayout layout;
  std::vector<int> leaders;     ///< lowest comm rank per node
  std::vector<int> my_members;  ///< my node's comm ranks, ascending

  [[nodiscard]] int nodes() const noexcept {
    return static_cast<int>(leaders.size());
  }
  [[nodiscard]] int node_of(int r) const { return layout.node_of(r); }
  [[nodiscard]] int slot_of(int r) const { return layout.slot_of(r); }
  [[nodiscard]] int node_size(int node) const {
    return layout.node_size(node);
  }
  /// `node`'s comm ranks form one run.
  [[nodiscard]] bool contiguous(int node) const {
    return layout.contiguous(node);
  }
  /// `node`'s comm ranks, ascending.
  [[nodiscard]] std::vector<int> members_of(int node) const {
    return layout.members_of(node);
  }

  int my_node = 0;
  int my_slot = 0;
  int on_node = 1;  ///< members of my node (including me)
  bool i_am_leader = true;
  bool multi_member = false;  ///< any node hosts > 1 member

  /// My node's members grouped by socket (socket index ascending, comm
  /// rank ascending within a socket); the intra-node fold order.
  std::vector<std::vector<int>> my_sockets;

  /// Tree depth the hierarchy gives this rank's traffic: cross-node level,
  /// node level, plus a socket level when the node spans sockets.
  int depth = 1;

  /// Global ranks of my node's members, me included (liveness polling).
  std::vector<base::Rank> my_node_globals;

  /// On-node shared region; null when this rank is alone on its node.
  std::shared_ptr<NodeShared> region;

  /// The same communicator's flat plan, built on first use.
  std::shared_ptr<const Plan> flat_plan;
};

/// The plan collectives on `s` run on: its cached topology plan, or under
/// "coll.algorithm=flat" the flat one. Built under ps.mu on first use.
std::shared_ptr<const Plan> plan_for(detail::ProcState& ps,
                                     const std::shared_ptr<detail::CommState>& s);

}  // namespace sessmpi::coll
