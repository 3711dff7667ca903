#include "sessmpi/group.hpp"

#include <algorithm>
#include <set>

namespace sessmpi {

const Group& Group::empty() {
  static const Group g{std::make_shared<const std::vector<base::Rank>>()};
  return g;
}

Group::Group(std::shared_ptr<const std::vector<base::Rank>> m)
    : members_(std::move(m)) {
  const std::vector<base::Rank>& v = *members_;
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i] <= v[i - 1]) {
      sorted_ = contig_ = false;
      break;
    }
    if (v[i] != v[i - 1] + 1) {
      contig_ = false;
    }
  }
}

Group Group::of(std::vector<base::Rank> members) {
  // Strictly increasing input (world, pset snapshots, shrink survivors) is
  // duplicate-free by construction; only unordered input pays the set-based
  // dedupe check.
  bool increasing = true;
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i] <= members[i - 1]) {
      increasing = false;
      break;
    }
  }
  if (!increasing) {
    std::set<base::Rank> unique(members.begin(), members.end());
    if (unique.size() != members.size()) {
      throw Error(ErrClass::group, "duplicate ranks in group");
    }
  }
  return Group{std::make_shared<const std::vector<base::Rank>>(std::move(members))};
}

Group Group::of_shared(
    std::shared_ptr<const std::vector<base::Rank>> members) {
  if (!members) {
    throw Error(ErrClass::group, "null member vector");
  }
  Group g{std::move(members)};
  if (!g.sorted_) {
    std::set<base::Rank> unique(g.members_->begin(), g.members_->end());
    if (unique.size() != g.members_->size()) {
      throw Error(ErrClass::group, "duplicate ranks in group");
    }
  }
  return g;
}

int Group::size() const noexcept { return static_cast<int>(members_->size()); }

int Group::rank_of(base::Rank global) const noexcept {
  const std::vector<base::Rank>& v = *members_;
  if (v.empty()) {
    return -1;
  }
  if (contig_) {
    const base::Rank off = global - v.front();
    return off >= 0 && off < static_cast<base::Rank>(v.size())
               ? static_cast<int>(off)
               : -1;
  }
  if (sorted_) {
    auto it = std::lower_bound(v.begin(), v.end(), global);
    return it != v.end() && *it == global
               ? static_cast<int>(std::distance(v.begin(), it))
               : -1;
  }
  auto it = std::find(v.begin(), v.end(), global);
  return it == v.end() ? -1 : static_cast<int>(std::distance(v.begin(), it));
}

base::Rank Group::global_of(int r) const {
  if (r < 0 || r >= size()) {
    throw Error(ErrClass::rank, "group rank out of range");
  }
  return (*members_)[static_cast<std::size_t>(r)];
}

const std::vector<base::Rank>& Group::members() const noexcept {
  return *members_;
}

bool Group::contains(base::Rank global) const noexcept {
  return rank_of(global) >= 0;
}

Group Group::set_union(const Group& other) const {
  std::vector<base::Rank> out = *members_;
  for (base::Rank r : *other.members_) {
    if (!contains(r)) {
      out.push_back(r);
    }
  }
  return Group::of(std::move(out));
}

Group Group::set_intersection(const Group& other) const {
  std::vector<base::Rank> out;
  for (base::Rank r : *members_) {
    if (other.contains(r)) {
      out.push_back(r);
    }
  }
  return Group::of(std::move(out));
}

Group Group::set_difference(const Group& other) const {
  std::vector<base::Rank> out;
  for (base::Rank r : *members_) {
    if (!other.contains(r)) {
      out.push_back(r);
    }
  }
  return Group::of(std::move(out));
}

Group Group::incl(const std::vector<int>& ranks) const {
  std::vector<base::Rank> out;
  out.reserve(ranks.size());
  for (int r : ranks) {
    out.push_back(global_of(r));  // throws on range error
  }
  return Group::of(std::move(out));  // throws on duplicates
}

Group Group::excl(const std::vector<int>& ranks) const {
  std::set<int> drop;
  for (int r : ranks) {
    (void)global_of(r);  // validate
    if (!drop.insert(r).second) {
      throw Error(ErrClass::rank, "duplicate rank in excl");
    }
  }
  std::vector<base::Rank> out;
  for (int r = 0; r < size(); ++r) {
    if (!drop.contains(r)) {
      out.push_back(global_of(r));
    }
  }
  return Group::of(std::move(out));
}

std::vector<int> Group::translate(const std::vector<int>& ranks,
                                  const Group& other) const {
  std::vector<int> out;
  out.reserve(ranks.size());
  for (int r : ranks) {
    out.push_back(other.rank_of(global_of(r)));
  }
  return out;
}

Group::Compare Group::compare(const Group& other) const {
  if (*members_ == *other.members_) {
    return Compare::ident;
  }
  if (members_->size() != other.members_->size()) {
    return Compare::unequal;
  }
  std::vector<base::Rank> a = *members_;
  std::vector<base::Rank> b = *other.members_;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b ? Compare::similar : Compare::unequal;
}

}  // namespace sessmpi
