// Property test for pmix::Participants, the node layout behind the
// hierarchical PMIx collective: over seeded participant lists of every
// shape, the span, locals, delegates and membership match the O(n) scans
// (hash set, lowest-per-node map, linear find) they replaced.

#include "sessmpi/pmix/participants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <unordered_set>

#include "../base/member_shapes.hpp"

namespace sessmpi::pmix {
namespace {

int nodes_spanned(const base::Topology& topo, const std::vector<ProcId>& procs) {
  std::unordered_set<int> nodes;
  for (ProcId p : procs) {
    nodes.insert(topo.node_of(p));
  }
  return static_cast<int>(nodes.size());
}

std::vector<ProcId> locals_of(const base::Topology& topo,
                              const std::vector<ProcId>& procs, ProcId self) {
  std::vector<ProcId> out;
  for (ProcId p : procs) {
    if (topo.node_of(p) == topo.node_of(self)) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<ProcId> delegates_of(const base::Topology& topo,
                                 const std::vector<ProcId>& procs) {
  std::unordered_map<int, ProcId> lowest_by_node;
  for (ProcId p : procs) {
    auto [it, inserted] = lowest_by_node.try_emplace(topo.node_of(p), p);
    if (!inserted && p < it->second) {
      it->second = p;
    }
  }
  std::vector<ProcId> out;
  for (const auto& [node, lowest] : lowest_by_node) {
    out.push_back(lowest);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PmixParticipants, MatchesLinearScansOnEveryShape) {
  for (const base::Topology& topo : testing::shape_topologies()) {
    for (testing::Shape shape : testing::all_shapes()) {
      for (unsigned seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE(testing::shape_name(shape) + " seed " +
                     std::to_string(seed) + " on " +
                     std::to_string(topo.num_nodes) + "x" +
                     std::to_string(topo.procs_per_node));
        std::mt19937 rng(seed);
        const std::vector<ProcId> procs = testing::member_list(shape, topo, rng);
        const Participants parts(procs, topo);
        EXPECT_EQ(parts.span(), nodes_spanned(topo, procs));
        EXPECT_EQ(parts.delegates(), delegates_of(topo, procs));
        for (ProcId p = 0; p < topo.size(); ++p) {
          EXPECT_EQ(parts.contains(p),
                    std::find(procs.begin(), procs.end(), p) != procs.end())
              << p;
          EXPECT_EQ(parts.on_node_of(p), locals_of(topo, procs, p)) << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace sessmpi::pmix
