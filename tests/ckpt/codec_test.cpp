// Redundancy-set unit tests: placement properties of set_layouts() over
// seeded cluster shapes and post-shrink member lists, the stripe rotation,
// and the codec's round trip under every loss pattern (within and beyond
// tolerance) for the partner-copy (1, 1), XOR (k, 1) and general RS(k, m)
// shapes. Pure arithmetic — no simulated cluster involved.

#include "sessmpi/ckpt/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sessmpi/base/error.hpp"

namespace sessmpi::ckpt {
namespace {

/// Deterministic pseudo-random chunk contents (LCG, seeded per chunk).
std::vector<std::byte> chunk_bytes(int seed, std::size_t len) {
  std::vector<std::byte> v(len);
  auto x = static_cast<std::uint32_t>(seed) * 2654435761u + 12345u;
  for (auto& b : v) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<std::byte>(x >> 24);
  }
  return v;
}

std::vector<base::Rank> all_ranks(const base::Topology& topo) {
  std::vector<base::Rank> v(static_cast<std::size_t>(topo.size()));
  for (int r = 0; r < topo.size(); ++r) {
    v[static_cast<std::size_t>(r)] = r;
  }
  return v;
}

/// Partition + shape invariants that hold for any member list.
void expect_partition(const std::vector<SetLayout>& sets, int n, int k, int m) {
  std::vector<int> seen;
  for (const SetLayout& s : sets) {
    EXPECT_EQ(s.data + s.parity, s.size());
    EXPECT_LE(s.size(), k + m + 1);
    if (n >= 2 && k + m >= 2) {
      EXPECT_GE(s.size(), 2) << "a 1-member set has no redundancy";
    }
    if (s.size() == k + m + 1) {  // a 1-member tail joined this set
      EXPECT_EQ(&s, &sets.back());
      EXPECT_EQ(s.data, k + 1);
      EXPECT_EQ(s.parity, m);
    } else {
      EXPECT_EQ(s.parity, std::min(m, s.size() - 1));
    }
    for (int x = 0; x < s.size(); ++x) {
      EXPECT_EQ(s.member_of(s.members[static_cast<std::size_t>(x)]), x);
    }
    seen.insert(seen.end(), s.members.begin(), s.members.end());
  }
  std::sort(seen.begin(), seen.end());
  std::vector<int> want(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    want[static_cast<std::size_t>(r)] = r;
  }
  EXPECT_EQ(seen, want) << "the sets must partition the communicator";
}

TEST(Codec, SetLayoutPartitionsRanksWithGracefulTail) {
  // Seeded sweep over cluster shapes and set shapes, on the full
  // communicator and on post-shrink member lists (random survivors, kept in
  // comm-rank order as shrink keeps them).
  std::mt19937 rng(20260417);
  for (int trial = 0; trial < 400; ++trial) {
    const base::Topology topo{1 + static_cast<int>(rng() % 6),
                              1 + static_cast<int>(rng() % 8)};
    const int k = 1 + static_cast<int>(rng() % 8);
    const int m = static_cast<int>(rng() % 3);
    std::vector<base::Rank> members = all_ranks(topo);
    if (trial % 2 == 1) {
      std::vector<base::Rank> kept;
      for (const base::Rank r : members) {
        if (rng() % 4 != 0) {
          kept.push_back(r);
        }
      }
      members = kept;
    }
    if (members.empty()) {
      continue;
    }
    const auto sets = set_layouts(members, topo, k, m);
    SCOPED_TRACE(::testing::Message()
                 << "nodes=" << topo.num_nodes << " ppn="
                 << topo.procs_per_node << " k=" << k << " m=" << m
                 << " n=" << members.size());
    expect_partition(sets, static_cast<int>(members.size()), k, m);
    // A pure function: every rank, every call, the same sets.
    const auto again = set_layouts(members, topo, k, m);
    ASSERT_EQ(again.size(), sets.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(again[i].members, sets[i].members);
      EXPECT_EQ(again[i].data, sets[i].data);
      EXPECT_EQ(again[i].parity, sets[i].parity);
    }
  }
  // Tail rules at a glance (one node, so sets are consecutive ranks):
  // a 2-member tail is duplication, a 1-member tail joins the previous set.
  const base::Topology one{1, 16};
  const auto eight = set_layouts(all_ranks(base::Topology{1, 8}), one, 4, 2);
  ASSERT_EQ(eight.size(), 2u);
  EXPECT_EQ(eight[1].members, (std::vector<int>{6, 7}));
  EXPECT_EQ(eight[1].parity, 1);
  const auto seven = set_layouts(all_ranks(base::Topology{1, 7}), one, 4, 2);
  ASSERT_EQ(seven.size(), 1u);
  EXPECT_EQ(seven[0].size(), 7);
  EXPECT_EQ(seven[0].data, 5);
  EXPECT_EQ(seven[0].parity, 2);
  EXPECT_THROW((void)set_layouts({0, 1}, one, 0, 1), base::Error);
  EXPECT_THROW((void)set_layouts({0, 1}, one, 1, -1), base::Error);
}

TEST(Codec, SetLayoutSpreadsSetsAcrossNodes) {
  // At uniform ppn a node holds at most ceil(|set| / nodes) members of any
  // set, and the default (1, 1) pairs span two nodes whenever there are two.
  std::mt19937 rng(7);
  for (int trial = 0; trial < 400; ++trial) {
    const base::Topology topo{1 + static_cast<int>(rng() % 8),
                              1 + static_cast<int>(rng() % 12)};
    const bool pairs = trial % 3 == 0;
    const int k = pairs ? 1 : 1 + static_cast<int>(rng() % 10);
    const int m = pairs ? 1 : 1 + static_cast<int>(rng() % 3);
    SCOPED_TRACE(::testing::Message()
                 << "nodes=" << topo.num_nodes << " ppn="
                 << topo.procs_per_node << " k=" << k << " m=" << m);
    for (const SetLayout& s : set_layouts(all_ranks(topo), topo, k, m)) {
      std::map<int, int> per_node;
      for (const int r : s.members) {
        ++per_node[topo.node_of(r)];
      }
      const int cap = (s.size() + topo.num_nodes - 1) / topo.num_nodes;
      for (const auto& [node, count] : per_node) {
        EXPECT_LE(count, cap) << "node " << node;
      }
      if (topo.num_nodes >= 2) {
        EXPECT_GE(per_node.size(), 2u) << "a set confined to one node";
      }
    }
  }
  // The concrete 2 x 4 case: pairs {0,4} {1,5} {2,6} {3,7}.
  const base::Topology topo{2, 4};
  const auto sets = set_layouts(all_ranks(topo), topo, 1, 1);
  ASSERT_EQ(sets.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sets[static_cast<std::size_t>(i)].members,
              (std::vector<int>{i, i + 4}));
  }
  // After rank 5 dies the 7 survivors re-pair across nodes, and the odd
  // one out joins the last pair instead of going without a copy.
  const std::vector<base::Rank> shrunk{0, 1, 2, 3, 4, 6, 7};
  const auto after = set_layouts(shrunk, topo, 1, 1);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(after[0].members, (std::vector<int>{0, 4}));  // comm ranks
  EXPECT_EQ(after[1].members, (std::vector<int>{1, 5}));
  EXPECT_EQ(after[2].members, (std::vector<int>{2, 6, 3}));
  EXPECT_EQ(after[2].data, 2);
  EXPECT_EQ(after[2].parity, 1);
}

TEST(Codec, EveryMemberHoldsExactlyOneChunkPerStripe) {
  const SetLayout s{{0, 1, 2, 3, 4, 5}, 4, 2};
  for (int stripe = 0; stripe < s.size(); ++stripe) {
    std::set<int> holders;
    for (int j = 0; j < s.data; ++j) {
      const int mem = s.data_member(stripe, j);
      holders.insert(mem);
      EXPECT_EQ(s.stripe_of_chunk(mem, j), stripe);  // inverse mapping
      EXPECT_EQ(s.parity_index(stripe, mem), -1);    // holds data there
    }
    for (int i = 0; i < s.parity; ++i) {
      const int mem = s.parity_member(stripe, i);
      holders.insert(mem);
      EXPECT_EQ(s.parity_index(stripe, mem), i);
    }
    // k data + m parity chunks land on k + m distinct members: the set
    // loses at most one chunk per stripe per dead member.
    EXPECT_EQ(holders.size(), static_cast<std::size_t>(s.size()));
  }
}

TEST(Codec, ReedSolomonRoundTripsEveryLossPatternUpToM) {
  // Every loss pattern over the k + m stripe positions (0..k-1 data,
  // k..k+m-1 parity): recoverable iff no more data chunks are missing than
  // parity chunks survive — then bitwise; otherwise refused with the
  // buffers untouched. (1, 1) is the partner copy, (k, 1) is XOR.
  constexpr std::size_t len = 29;
  for (const auto& [k, m] : std::vector<std::pair<int, int>>{
           {1, 1}, {3, 1}, {4, 1}, {7, 1}, {4, 2}, {8, 2}, {4, 3}}) {
    SCOPED_TRACE(::testing::Message() << "k=" << k << " m=" << m);
    const SetCodec codec(k, m);
    EXPECT_EQ(codec.k(), k);
    EXPECT_EQ(codec.m(), m);
    std::vector<std::vector<std::byte>> data;
    std::vector<const std::byte*> dptr;
    for (int j = 0; j < k; ++j) {
      data.push_back(chunk_bytes(100 * k + j, len));
      dptr.push_back(data.back().data());
    }
    std::vector<std::vector<std::byte>> parity(
        static_cast<std::size_t>(m), std::vector<std::byte>(len));
    for (int i = 0; i < m; ++i) {
      codec.encode(i, dptr.data(), len,
                   parity[static_cast<std::size_t>(i)].data());
    }
    for (unsigned mask = 0; mask < (1u << (k + m)); ++mask) {
      auto work = data;
      std::vector<std::byte*> wptr;
      bool ok[8] = {};
      int missing = 0;
      for (int j = 0; j < k; ++j) {
        ok[j] = (mask & (1u << j)) == 0;
        if (!ok[j]) {
          ++missing;
          std::fill(work[static_cast<std::size_t>(j)].begin(),
                    work[static_cast<std::size_t>(j)].end(), std::byte{0});
        }
        wptr.push_back(work[static_cast<std::size_t>(j)].data());
      }
      std::vector<const std::byte*> pptr(static_cast<std::size_t>(m));
      int alive = 0;
      for (int i = 0; i < m; ++i) {
        const bool lost = (mask & (1u << (k + i))) != 0;
        pptr[static_cast<std::size_t>(i)] =
            lost ? nullptr : parity[static_cast<std::size_t>(i)].data();
        alive += lost ? 0 : 1;
      }
      const bool want = missing <= alive;
      ASSERT_EQ(codec.reconstruct(wptr.data(), ok, pptr.data(), len), want)
          << "mask=" << mask;
      if (want) {
        EXPECT_LE(missing, m);
        for (int j = 0; j < k; ++j) {
          ASSERT_EQ(work[static_cast<std::size_t>(j)],
                    data[static_cast<std::size_t>(j)])
              << "mask=" << mask << " chunk=" << j;
        }
      } else {
        EXPECT_GT(std::popcount(mask), m);
        for (int j = 0; j < k; ++j) {
          if (!ok[j]) {
            EXPECT_EQ(work[static_cast<std::size_t>(j)],
                      std::vector<std::byte>(len, std::byte{0}));
          }
        }
      }
    }
  }
}

TEST(Codec, XorRoundTripsAnySingleDataLoss) {
  // RS(k, 1) is XOR: any one lost data chunk comes back from the parity.
  constexpr int k = 4;
  constexpr std::size_t len = 33;
  const SetCodec codec(k, 1);
  EXPECT_EQ(codec.k(), k);
  EXPECT_EQ(codec.m(), 1);

  std::vector<std::vector<std::byte>> data;
  std::vector<const std::byte*> dptr;
  for (int j = 0; j < k; ++j) {
    data.push_back(chunk_bytes(j, len));
    dptr.push_back(data.back().data());
  }
  std::vector<std::byte> parity(len);
  codec.encode(0, dptr.data(), len, parity.data());

  for (int lost = 0; lost < k; ++lost) {
    auto work = data;
    std::fill(work[static_cast<std::size_t>(lost)].begin(),
              work[static_cast<std::size_t>(lost)].end(), std::byte{0});
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
      ok[j] = j != lost;
    }
    const std::byte* pptr[1] = {parity.data()};
    ASSERT_TRUE(codec.reconstruct(wptr.data(), ok, pptr, len));
    EXPECT_EQ(work[static_cast<std::size_t>(lost)],
              data[static_cast<std::size_t>(lost)]);
  }

  // Losing only the parity chunk costs nothing: all data survived.
  {
    auto work = data;
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
      ok[j] = true;
    }
    const std::byte* pptr[1] = {nullptr};
    EXPECT_TRUE(codec.reconstruct(wptr.data(), ok, pptr, len));
  }

  // A data chunk and the parity lost together exceed m = 1: refused.
  {
    auto work = data;
    std::vector<std::byte*> wptr;
    bool ok[k];
    for (int j = 0; j < k; ++j) {
      wptr.push_back(work[static_cast<std::size_t>(j)].data());
      ok[j] = j != 0;
    }
    const std::byte* pptr[1] = {nullptr};
    EXPECT_FALSE(codec.reconstruct(wptr.data(), ok, pptr, len));
  }
}

TEST(Codec, ReedSolomonWithSingleParityMatchesXor) {
  // The normalised parity matrix has an all-ones row 0: parity 0 of every
  // RS(k, m) is byte-identical to the XOR of the data chunks — RS(k, 1) is
  // RAID-5 and RS(1, 1) a plain copy, with no codec of their own.
  constexpr std::size_t len = 17;
  for (int k = 1; k <= 8; ++k) {
    std::vector<std::vector<std::byte>> data;
    std::vector<const std::byte*> dptr;
    std::vector<std::byte> want(len, std::byte{0});
    for (int j = 0; j < k; ++j) {
      data.push_back(chunk_bytes(200 + j, len));
      dptr.push_back(data.back().data());
      for (std::size_t b = 0; b < len; ++b) {
        want[b] ^= data.back()[b];
      }
    }
    for (const int m : {1, 2, 3}) {
      std::vector<std::byte> parity(len);
      SetCodec(k, m).encode(0, dptr.data(), len, parity.data());
      EXPECT_EQ(parity, want) << "k=" << k << " m=" << m;
    }
  }
}

TEST(Codec, ConstructorValidatesShape) {
  EXPECT_NO_THROW(SetCodec(1, 1));
  EXPECT_NO_THROW(SetCodec(4, 0));
  EXPECT_NO_THROW(SetCodec(200, 54));
  EXPECT_THROW(SetCodec(0, 2), base::Error);
  EXPECT_THROW(SetCodec(4, -1), base::Error);
  EXPECT_THROW(SetCodec(200, 55), base::Error);
}

}  // namespace
}  // namespace sessmpi::ckpt
