#include "sessmpi/base/node_layout.hpp"

#include <algorithm>
#include <numeric>

namespace sessmpi::base {

NodeLayout::NodeLayout(std::span<const Rank> members, const Topology& topo,
                       bool sorted) {
  const int n = static_cast<int>(members.size());
  for (int i = 0; i < n;) {
    const int id = topo.node_of(members[static_cast<std::size_t>(i)]);
    int end = i + 1;
    if (sorted) {
      end = static_cast<int>(
          std::lower_bound(members.begin() + i, members.end(),
                           (id + 1) * topo.procs_per_node) -
          members.begin());
    } else {
      while (end < n &&
             topo.node_of(members[static_cast<std::size_t>(end)]) == id) {
        ++end;
      }
    }
    runs_.push_back({i, end - i, id, 0});
    i = end;
  }
  index();
}

NodeLayout NodeLayout::flat(int n) {
  NodeLayout l;
  l.runs_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    l.runs_.push_back({r, 1, r, 0});
  }
  l.index();
  return l;
}

/// Derive everything else from the runs: the size, the closed-form stride,
/// and, unless the runs are already one per node in ascending node id, the
/// node grouping and slot bases.
void NodeLayout::index() {
  const auto nr = static_cast<int>(runs_.size());
  size_ = nr == 0 ? 0 : runs_.back().first + runs_.back().len;
  stride_ = nr == 0 ? 0 : runs_.front().len;
  for (int k = 0; k < nr; ++k) {
    const bool last = k + 1 == nr;
    if (last ? runs_[k].len > stride_ : runs_[k].len != stride_) {
      stride_ = 0;
      break;
    }
  }
  const bool ordered =
      std::ranges::adjacent_find(runs_, [](const NodeRun& a, const NodeRun& b) {
        return a.node >= b.node;
      }) == runs_.end();
  if (ordered) {
    nodes_ = nr;
    return;
  }
  by_node_.resize(static_cast<std::size_t>(nr));
  std::iota(by_node_.begin(), by_node_.end(), 0);
  std::ranges::stable_sort(by_node_, [&](int a, int b) {
    return runs_[a].node < runs_[b].node;
  });
  int slots = 0;
  for (int k = 0; k < nr; ++k) {
    NodeRun& run = runs_[by_node_[k]];
    if (k > 0 && run.node != runs_[by_node_[k - 1]].node) {
      node_end_.push_back(k);
      slots = 0;
    }
    run.slot_base = slots;
    slots += run.len;
  }
  node_end_.push_back(nr);
  nodes_ = static_cast<int>(node_end_.size());
}

int NodeLayout::runs_begin(int node) const {
  if (ordered()) {
    return node;
  }
  return node == 0 ? 0 : node_end_[node - 1];
}

int NodeLayout::runs_end(int node) const {
  return ordered() ? node + 1 : node_end_[node];
}

const NodeRun& NodeLayout::node_run(int k) const {
  return runs_[ordered() ? k : by_node_[k]];
}

int NodeLayout::run_of(int pos) const {
  if (stride_ > 0) {
    return pos / stride_;
  }
  const auto it = std::ranges::upper_bound(runs_, pos, {}, &NodeRun::first);
  return static_cast<int>(it - runs_.begin()) - 1;
}

int NodeLayout::node_of(int pos) const {
  const int k = run_of(pos);
  return ordered() ? k : index_of(runs_[k].node);
}

int NodeLayout::slot_of(int pos) const {
  const NodeRun& run = runs_[run_of(pos)];
  return run.slot_base + pos - run.first;
}

int NodeLayout::index_of(int id) const {
  int lo = 0;
  int hi = nodes_;
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    if (node_id(mid) < id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < nodes_ && node_id(lo) == id ? lo : -1;
}

int NodeLayout::node_size(int node) const {
  const NodeRun& last = node_run(runs_end(node) - 1);
  return last.slot_base + last.len;
}

bool NodeLayout::contiguous(int node) const {
  return runs_end(node) - runs_begin(node) == 1;
}

std::vector<int> NodeLayout::members_of(int node) const {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(node_size(node)));
  for (int k = runs_begin(node); k < runs_end(node); ++k) {
    const NodeRun& run = node_run(k);
    for (int p = run.first; p < run.first + run.len; ++p) {
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace sessmpi::base
