#pragma once

// Seeded member lists (global ranks in list order) in the shapes
// communicators and PMIx collectives take, plus the O(n) by-node grouping
// the node-run layout replaced. The grouping is the reference the layout,
// plan and PMIx property tests compare against.

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "sessmpi/base/topology.hpp"

namespace sessmpi::testing {

enum class Shape {
  contiguous,    ///< one ascending range of ranks
  strided,       ///< every k-th rank from an offset
  shrink,        ///< the allocation minus a seeded quarter of its ranks
  reversed,      ///< descending ranks
  shuffled,      ///< a seeded permutation of the allocation
  one_node,      ///< the ranks of one node
  one_per_node,  ///< one seeded rank on every node
};

inline const std::vector<Shape>& all_shapes() {
  static const std::vector<Shape> v = {
      Shape::contiguous, Shape::strided,  Shape::shrink,      Shape::reversed,
      Shape::shuffled,   Shape::one_node, Shape::one_per_node};
  return v;
}

inline std::string shape_name(Shape s) {
  switch (s) {
    case Shape::contiguous: return "contiguous";
    case Shape::strided: return "strided";
    case Shape::shrink: return "shrink";
    case Shape::reversed: return "reversed";
    case Shape::shuffled: return "shuffled";
    case Shape::one_node: return "one_node";
    case Shape::one_per_node: return "one_per_node";
  }
  return "?";
}

/// Topologies the property tests sweep, including two sockets per node.
inline const std::vector<base::Topology>& shape_topologies() {
  static const std::vector<base::Topology> v = {
      {1, 1, 1}, {1, 16, 2}, {16, 1, 1}, {3, 5, 1},
      {4, 8, 1}, {6, 4, 2},  {5, 7, 2}};
  return v;
}

/// A non-empty member list of shape `s` on `topo`.
inline std::vector<base::Rank> member_list(Shape s, const base::Topology& topo,
                                           std::mt19937& rng) {
  const int n = topo.size();
  const auto pick = [&](int lo, int hi) {  // uniform in [lo, hi]
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<base::Rank> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  std::vector<base::Rank> out;
  switch (s) {
    case Shape::contiguous: {
      const int lo = pick(0, n - 1);
      const int hi = pick(lo, n - 1);
      for (int r = lo; r <= hi; ++r) out.push_back(r);
      break;
    }
    case Shape::strided: {
      const int stride = pick(2, 5);
      for (int r = pick(0, std::min(stride, n) - 1); r < n; r += stride) {
        out.push_back(r);
      }
      break;
    }
    case Shape::shrink:
      for (int r = 0; r < n; ++r) {
        if (pick(0, 3) != 0) out.push_back(r);
      }
      if (out.empty()) out.push_back(pick(0, n - 1));
      break;
    case Shape::reversed:
      out.assign(all.rbegin(), all.rend());
      break;
    case Shape::shuffled:
      out = all;
      std::shuffle(out.begin(), out.end(), rng);
      break;
    case Shape::one_node: {
      const int node = pick(0, topo.num_nodes - 1);
      for (int l = 0; l < topo.procs_per_node; ++l) {
        out.push_back(node * topo.procs_per_node + l);
      }
      break;
    }
    case Shape::one_per_node:
      for (int node = 0; node < topo.num_nodes; ++node) {
        out.push_back(node * topo.procs_per_node +
                      pick(0, topo.procs_per_node - 1));
      }
      break;
  }
  return out;
}

/// The reference grouping: list positions by hosting node, nodes ascending,
/// positions ascending within a node.
inline std::map<int, std::vector<int>> by_node(
    const std::vector<base::Rank>& members, const base::Topology& topo) {
  std::map<int, std::vector<int>> out;
  for (std::size_t pos = 0; pos < members.size(); ++pos) {
    out[topo.node_of(members[pos])].push_back(static_cast<int>(pos));
  }
  return out;
}

}  // namespace sessmpi::testing
