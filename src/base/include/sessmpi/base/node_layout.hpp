#pragma once

// Node-run layout of a member list (DESIGN.md §13). A communicator's or a
// PMIx collective's participants, in list order, are described by which
// node hosts each of them. Instead of per-member arrays the layout keeps
// runs: maximal stretches of consecutive list positions hosted by one node.
// A sorted list (world, psets, shrink survivors, strided subsets,
// order-keeping splits) has exactly one run per node, so the layout costs
// O(nodes) on every member instead of O(n).

#include <span>
#include <vector>

#include "sessmpi/base/topology.hpp"

namespace sessmpi::base {

/// Consecutive list positions [first, first + len) hosted by one node.
struct NodeRun {
  int first = 0;
  int len = 0;
  int node = 0;       ///< hosting node's id (topology node, or key)
  int slot_base = 0;  ///< members of that node in earlier runs
  friend bool operator==(const NodeRun&, const NodeRun&) = default;
};

/// Positions grouped by node. Nodes are indexed 0..nodes()-1 in ascending
/// node id; a node's members ("slots") are its positions in ascending
/// order. Lookups answer in closed form when every run but the last has
/// the same length (world, a full pset, the flat layout), and by binary
/// search over the runs otherwise.
class NodeLayout {
 public:
  NodeLayout() = default;

  /// Layout of `members` (global ranks, in list order) on `topo`. With
  /// `sorted` (ascending members) each node's run ends at a lower_bound,
  /// O(nodes * log n); otherwise one O(n) pass emits the runs.
  NodeLayout(std::span<const Rank> members, const Topology& topo, bool sorted);

  /// `n` positions, each on a node of its own whose id is the position.
  static NodeLayout flat(int n);

  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] int nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<NodeRun>& runs() const noexcept {
    return runs_;
  }

  /// Node index hosting position `pos`, and `pos`'s slot on it.
  [[nodiscard]] int node_of(int pos) const;
  [[nodiscard]] int slot_of(int pos) const;

  /// Index of node id `id`, or -1 when no member lives there.
  [[nodiscard]] int index_of(int id) const;
  [[nodiscard]] int node_id(int node) const {
    return node_run(runs_begin(node)).node;
  }
  [[nodiscard]] int node_size(int node) const;
  /// Lowest position hosted by `node`.
  [[nodiscard]] int leader(int node) const {
    return node_run(runs_begin(node)).first;
  }
  /// `node`'s members form one run of consecutive positions.
  [[nodiscard]] bool contiguous(int node) const;
  /// `node`'s positions, ascending.
  [[nodiscard]] std::vector<int> members_of(int node) const;

 private:
  /// Runs are one per node in ascending node id: run i is node i.
  [[nodiscard]] bool ordered() const noexcept { return by_node_.empty(); }
  /// `node`'s runs are node_run(k) for k in [runs_begin, runs_end).
  [[nodiscard]] int runs_begin(int node) const;
  [[nodiscard]] int runs_end(int node) const;
  [[nodiscard]] const NodeRun& node_run(int k) const;
  [[nodiscard]] int run_of(int pos) const;
  void index();

  int size_ = 0;
  int nodes_ = 0;
  int stride_ = 0;  ///< > 0: run k starts at position k * stride_
  std::vector<NodeRun> runs_;  ///< list order
  // Filled only when the runs are not one per node in ascending node id:
  std::vector<int> by_node_;   ///< run indices grouped by node, list order
  std::vector<int> node_end_;  ///< node i's runs are by_node_[end(i-1), end(i))
};

}  // namespace sessmpi::base
