#pragma once

// MPI_Group: an ordered set of processes, held as global ranks within the
// allocation. Groups are immutable values; set operations return new groups.
// A group obtained from a session pset is equivalent to one obtained from
// the corresponding World-model communicator (paper §III-B6).

#include <memory>
#include <vector>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/topology.hpp"

namespace sessmpi {

class Group {
 public:
  /// The empty group (MPI_GROUP_EMPTY).
  static const Group& empty();

  /// Build a group from global ranks (runtime-internal; applications obtain
  /// groups from sessions or communicators).
  static Group of(std::vector<base::Rank> members);

  /// Adopt an existing shared member vector without copying. This is the
  /// 10k-rank path: every rank resolving the same pset shares ONE runtime
  /// snapshot vector instead of holding a private n-entry copy (n ranks x
  /// n members would be O(n^2) memory host-wide). Duplicate members throw,
  /// exactly as in of().
  static Group of_shared(std::shared_ptr<const std::vector<base::Rank>> members);

  [[nodiscard]] int size() const noexcept;
  /// This process's rank within the group, or -1 if not a member
  /// (MPI_UNDEFINED analogue). `global` is the caller's global rank.
  [[nodiscard]] int rank_of(base::Rank global) const noexcept;
  /// Global rank of group-rank `r`. Throws Error(rank) if out of range.
  [[nodiscard]] base::Rank global_of(int r) const;
  [[nodiscard]] const std::vector<base::Rank>& members() const noexcept;
  [[nodiscard]] bool contains(base::Rank global) const noexcept;
  /// Members strictly increasing (world, psets, shrink survivors, strided
  /// subsets, order-keeping splits).
  [[nodiscard]] bool sorted() const noexcept { return sorted_; }

  // --- set operations (MPI_Group_union etc.) -------------------------------
  /// Union: members of *this, then members of other not in *this.
  [[nodiscard]] Group set_union(const Group& other) const;
  /// Intersection, ordered as in *this.
  [[nodiscard]] Group set_intersection(const Group& other) const;
  /// Difference: members of *this not in other.
  [[nodiscard]] Group set_difference(const Group& other) const;
  /// Subset by group ranks (MPI_Group_incl). Throws Error(rank) on bad index
  /// or duplicate.
  [[nodiscard]] Group incl(const std::vector<int>& ranks) const;
  /// Complement subset (MPI_Group_excl).
  [[nodiscard]] Group excl(const std::vector<int>& ranks) const;

  /// MPI_Group_translate_ranks: for each group rank in `ranks` (of *this*),
  /// the corresponding rank in `other`, or -1 when absent.
  [[nodiscard]] std::vector<int> translate(const std::vector<int>& ranks,
                                           const Group& other) const;

  /// MPI_Group_compare: identical (same members, same order), similar (same
  /// members, different order), or unequal.
  enum class Compare { ident, similar, unequal };
  [[nodiscard]] Compare compare(const Group& other) const;

 private:
  explicit Group(std::shared_ptr<const std::vector<base::Rank>> m);
  std::shared_ptr<const std::vector<base::Rank>> members_;
  // Shape flags (computed once at construction) feed rank_of fast paths:
  // contiguous groups (world, pset snapshots) answer in O(1), sorted ones
  // in O(log n); only arbitrarily-ordered groups pay the linear scan.
  bool sorted_ = true;  ///< members strictly increasing
  bool contig_ = true;  ///< members[i] == members[0] + i
};

}  // namespace sessmpi
