#include "sessmpi/pmix/participants.hpp"

#include <algorithm>

namespace sessmpi::pmix {

Participants::Participants(const std::vector<ProcId>& procs,
                           const base::Topology& topo)
    : procs_(procs),
      topo_(topo),
      sorted_(std::ranges::is_sorted(procs)),
      layout_(procs, topo, sorted_) {}

std::vector<ProcId> Participants::on_node_of(ProcId p) const {
  std::vector<ProcId> out;
  const int node = layout_.index_of(topo_.node_of(p));
  if (node >= 0) {
    for (int pos : layout_.members_of(node)) {
      out.push_back(procs_[static_cast<std::size_t>(pos)]);
    }
  }
  return out;
}

bool Participants::contains(ProcId p) const {
  const std::vector<ProcId> local = on_node_of(p);
  return std::ranges::find(local, p) != local.end();
}

std::vector<ProcId> Participants::delegates() const {
  std::vector<ProcId> out;
  out.reserve(static_cast<std::size_t>(span()));
  for (int node = 0; node < span(); ++node) {
    ProcId lowest = procs_[static_cast<std::size_t>(layout_.leader(node))];
    if (!sorted_) {
      for (int pos : layout_.members_of(node)) {
        lowest = std::min(lowest, procs_[static_cast<std::size_t>(pos)]);
      }
    }
    out.push_back(lowest);
  }
  return out;
}

}  // namespace sessmpi::pmix
