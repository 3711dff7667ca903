// Property tests for base::NodeLayout: over seeded member lists of every
// shape and several topologies, every lookup matches the by-node grouping
// it replaced, the sorted (lower_bound) and one-pass builders emit the same
// runs, and sorted lists stay one run per node at 262 144 members.

#include "sessmpi/base/node_layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "member_shapes.hpp"

namespace sessmpi::base {
namespace {

using testing::by_node;
using testing::member_list;
using testing::Shape;

void expect_matches_reference(const NodeLayout& lay,
                              const std::vector<Rank>& members,
                              const Topology& topo) {
  const auto ref = by_node(members, topo);
  ASSERT_EQ(lay.size(), static_cast<int>(members.size()));
  ASSERT_EQ(lay.nodes(), static_cast<int>(ref.size()));
  int idx = 0;
  for (const auto& [id, positions] : ref) {
    EXPECT_EQ(lay.node_id(idx), id);
    EXPECT_EQ(lay.index_of(id), idx);
    EXPECT_EQ(lay.node_size(idx), static_cast<int>(positions.size()));
    EXPECT_EQ(lay.leader(idx), positions.front());
    EXPECT_EQ(lay.contiguous(idx),
              positions.back() - positions.front() + 1 ==
                  static_cast<int>(positions.size()));
    EXPECT_EQ(lay.members_of(idx), positions);
    for (std::size_t slot = 0; slot < positions.size(); ++slot) {
      EXPECT_EQ(lay.node_of(positions[slot]), idx);
      EXPECT_EQ(lay.slot_of(positions[slot]), static_cast<int>(slot));
    }
    ++idx;
  }
  for (int id = 0; id < topo.num_nodes; ++id) {
    if (!ref.contains(id)) {
      EXPECT_EQ(lay.index_of(id), -1);
    }
  }
  // Runs tile the list in order, each maximal and on one node.
  int next = 0;
  for (std::size_t k = 0; k < lay.runs().size(); ++k) {
    const NodeRun& run = lay.runs()[k];
    EXPECT_EQ(run.first, next);
    EXPECT_GT(run.len, 0);
    for (int p = run.first; p < run.first + run.len; ++p) {
      EXPECT_EQ(topo.node_of(members[static_cast<std::size_t>(p)]), run.node);
    }
    if (k > 0) {
      EXPECT_NE(lay.runs()[k - 1].node, run.node);
    }
    next = run.first + run.len;
  }
  EXPECT_EQ(next, lay.size());
}

TEST(NodeLayout, MatchesByNodeReferenceOnEveryShape) {
  for (const Topology& topo : testing::shape_topologies()) {
    for (Shape shape : testing::all_shapes()) {
      for (unsigned seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(testing::shape_name(shape) + " on " +
                     std::to_string(topo.num_nodes) + "x" +
                     std::to_string(topo.procs_per_node) + "/" +
                     std::to_string(topo.sockets_per_node) + " seed " +
                     std::to_string(seed));
        std::mt19937 rng(seed);
        const std::vector<Rank> members = member_list(shape, topo, rng);
        const bool sorted = std::ranges::is_sorted(members);
        const NodeLayout lay(members, topo, sorted);
        expect_matches_reference(lay, members, topo);
        // One builder: the scan finds the same runs lower_bound does.
        EXPECT_EQ(NodeLayout(members, topo, false).runs(), lay.runs());
        if (sorted) {
          EXPECT_EQ(static_cast<int>(lay.runs().size()), lay.nodes());
        }
      }
    }
  }
}

TEST(NodeLayout, SortedListsAreOneRunPerNodeAtScale) {
  const Topology topo{4096, 64, 2};
  std::vector<Rank> world(static_cast<std::size_t>(topo.size()));
  std::iota(world.begin(), world.end(), 0);
  const NodeLayout lay(world, topo, true);
  EXPECT_EQ(lay.size(), 262144);
  EXPECT_EQ(lay.nodes(), 4096);
  EXPECT_EQ(lay.runs().size(), 4096u);
  EXPECT_EQ(lay.node_of(262143), 4095);
  EXPECT_EQ(lay.slot_of(262143), 63);
  EXPECT_EQ(lay.leader(100), 6400);

  // Shrink survivors: still sorted, still one run per node.
  std::mt19937 rng(7);
  std::vector<Rank> survivors;
  for (Rank r : world) {
    if (rng() % 8 != 0) survivors.push_back(r);
  }
  const NodeLayout shrunk(survivors, topo, true);
  EXPECT_EQ(shrunk.nodes(), 4096);
  EXPECT_EQ(shrunk.runs().size(), 4096u);
  const auto ref = by_node(survivors, topo);
  const int probe = ref.at(2048).back();
  EXPECT_EQ(shrunk.node_of(probe), 2048);
  EXPECT_EQ(shrunk.slot_of(probe), static_cast<int>(ref.at(2048).size()) - 1);
}

TEST(NodeLayout, FlatPutsEveryPositionOnItsOwnNode) {
  const NodeLayout lay = NodeLayout::flat(7);
  EXPECT_EQ(lay.size(), 7);
  EXPECT_EQ(lay.nodes(), 7);
  for (int r = 0; r < 7; ++r) {
    EXPECT_EQ(lay.node_of(r), r);
    EXPECT_EQ(lay.slot_of(r), 0);
    EXPECT_EQ(lay.node_id(r), r);
    EXPECT_EQ(lay.leader(r), r);
    EXPECT_EQ(lay.members_of(r), std::vector<int>{r});
  }
}

TEST(NodeLayout, EmptyListHasNoNodes) {
  const NodeLayout lay(std::vector<Rank>{}, Topology{2, 4}, true);
  EXPECT_EQ(lay.size(), 0);
  EXPECT_EQ(lay.nodes(), 0);
  EXPECT_EQ(lay.index_of(0), -1);
}

}  // namespace
}  // namespace sessmpi::base
