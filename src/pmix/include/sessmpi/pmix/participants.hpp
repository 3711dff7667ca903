#pragma once

// A PMIx collective's participant list laid out by node
// (base::NodeLayout). The span, membership, a node's locals and the
// per-node delegates of the hierarchical collective come from the runs: a
// sorted list costs O(nodes * log n) to lay out and O(ppn) to query, never
// a map or set over every participant.

#include <vector>

#include "sessmpi/base/node_layout.hpp"
#include "sessmpi/pmix/value.hpp"

namespace sessmpi::pmix {

class Participants {
 public:
  /// `procs` and `topo` must outlive the object.
  Participants(const std::vector<ProcId>& procs, const base::Topology& topo);

  [[nodiscard]] const std::vector<ProcId>& procs() const noexcept {
    return procs_;
  }
  /// Distinct nodes spanned: the modeled exchange costs' argument.
  [[nodiscard]] int span() const noexcept { return layout_.nodes(); }
  /// Participants hosted on `p`'s node, in list order.
  [[nodiscard]] std::vector<ProcId> on_node_of(ProcId p) const;
  [[nodiscard]] bool contains(ProcId p) const;
  /// Lowest participant per node, ascending: nodes hold disjoint ascending
  /// rank ranges, so node order is rank order.
  [[nodiscard]] std::vector<ProcId> delegates() const;

 private:
  const std::vector<ProcId>& procs_;
  const base::Topology& topo_;
  bool sorted_;
  base::NodeLayout layout_;
};

}  // namespace sessmpi::pmix
