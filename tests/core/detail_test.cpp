// White-box tests of core internals (compiled with the core's private
// include directory): the consensus CID algorithm's round behaviour, the
// subset allreduce building block, the tag-space helpers, and the FT-tag
// carve-out of revocation.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "detail/cid.hpp"
#include "detail/state.hpp"
#include "harness.hpp"

namespace sessmpi::detail {
namespace {

using sessmpi::testing::world_run;
using namespace std::chrono_literals;

TEST(InternalTags, AllBelowInternalBaseAndDistinct) {
  // Collective tags must never collide with application tags (>= 0) or the
  // wildcard sentinels.
  std::set<int> seen;
  for (std::uint32_t seq = 0; seq < 200; ++seq) {
    for (int round = 0; round < 4; ++round) {
      const int tag = internal_tag(seq, round);
      EXPECT_LE(tag, kInternalTagBase);
      EXPECT_NE(tag, any_tag);
      EXPECT_TRUE(seen.insert(tag).second)
          << "tag collision at seq=" << seq << " round=" << round;
    }
  }
}

TEST(TagsMatch, WildcardRules) {
  // Exact matches.
  EXPECT_TRUE(tags_match(3, 7, 3, 7));
  EXPECT_FALSE(tags_match(3, 7, 2, 7));
  EXPECT_FALSE(tags_match(3, 7, 3, 8));
  // Source wildcard.
  EXPECT_TRUE(tags_match(any_source, 7, 99, 7));
  // Tag wildcard matches application tags only.
  EXPECT_TRUE(tags_match(3, any_tag, 3, 0));
  EXPECT_TRUE(tags_match(3, any_tag, 3, 12345));
  EXPECT_FALSE(tags_match(3, any_tag, 3, kInternalTagBase));
  EXPECT_FALSE(tags_match(3, any_tag, 3, -5000));
  // Internal tags match exactly even though negative.
  EXPECT_TRUE(tags_match(3, kInternalTagBase - 8, 3, kInternalTagBase - 8));
}

TEST(SubsetAllreduce, MaxPairOverAllRanks) {
  world_run(1, 4, [](sim::Process& p) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    std::vector<int> everyone{0, 1, 2, 3};
    const auto r = subset_allreduce_max2(
        ps, comm, everyone,
        {static_cast<std::int64_t>(p.rank()),
         -static_cast<std::int64_t>(p.rank())},
        internal_tag(1000, 0));
    EXPECT_EQ(r[0], 3);   // max rank
    EXPECT_EQ(r[1], 0);   // max(-rank) = -min(rank)
  });
}

TEST(SubsetAllreduce, SubsetOnlyTouchesParticipants) {
  world_run(1, 4, [](sim::Process& p) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    if (p.rank() == 1 || p.rank() == 3) {
      const auto r = subset_allreduce_max2(
          ps, comm, {1, 3},
          {static_cast<std::int64_t>(10 * p.rank()), 0},
          internal_tag(2000, 0));
      EXPECT_EQ(r[0], 30);
    }
    comm_world().barrier();
  });
}

TEST(ConsensusCid, SingleRoundWhenUnfragmented) {
  world_run(1, 4, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    int rounds = 0;
    const auto cid = consensus_cid(ps, comm, {0, 1, 2, 3},
                                   internal_tag(3000, 0), &rounds);
    EXPECT_EQ(rounds, 1) << "aligned free slots must agree immediately";
    // Slot claimed on every process.
    std::lock_guard lock(ps.mu);
    EXPECT_TRUE(ps.cid_alloc.is_used(cid));
  });
}

TEST(ConsensusCid, DivergentFragmentationNeedsExtraRounds) {
  world_run(1, 2, [](sim::Process& p) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    // Rank 0 pre-claims slots 2..5, rank 1 claims nothing: proposals
    // diverge (rank0 proposes 6, rank1 proposes 2) and need a second round.
    if (p.rank() == 0) {
      std::lock_guard lock(ps.mu);
      for (std::uint32_t i = 2; i <= 5; ++i) {
        ASSERT_TRUE(ps.cid_alloc.claim(i));
      }
    }
    int rounds = 0;
    const auto cid = consensus_cid(ps, comm, {0, 1}, internal_tag(4000, 0),
                                   &rounds);
    EXPECT_EQ(cid, 6);  // lowest index free on BOTH processes
    if (p.rank() == 1) {
      EXPECT_GE(rounds, 2);
    }
    std::lock_guard lock(ps.mu);
    EXPECT_TRUE(ps.cid_alloc.is_used(6));
    // Rank 1's transient claims from failed rounds were released.
    if (p.rank() == 1) {
      EXPECT_FALSE(ps.cid_alloc.is_used(2));
    }
  });
}

TEST(ConsensusCid, ManySequentialAgreementsStayAligned) {
  world_run(1, 3, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    auto comm = detail_unwrap(comm_world());
    std::vector<std::uint16_t> got;
    for (int i = 0; i < 10; ++i) {
      got.push_back(consensus_cid(ps, comm, {0, 1, 2},
                                  internal_tag(5000 + i, 0)));
    }
    // All agreed IDs are distinct and ascending (lowest-free allocation).
    for (std::size_t i = 1; i < got.size(); ++i) {
      EXPECT_GT(got[i], got[i - 1]);
    }
    // Cross-rank agreement: allreduce of each value must equal the value.
    for (std::uint16_t v : got) {
      std::int64_t mine = v, mx = 0, mn = 0;
      comm_world().allreduce(&mine, &mx, 1, Datatype::int64(), Op::max());
      comm_world().allreduce(&mine, &mn, 1, Datatype::int64(), Op::min());
      EXPECT_EQ(mx, mn);
    }
  });
}

TEST(ProcStateInternals, CommRegistrationTables) {
  world_run(1, 1, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    auto world = detail_unwrap(comm_world());
    std::lock_guard lock(ps.mu);
    // COMM_WORLD occupies slot 0, COMM_SELF slot 1.
    ASSERT_GE(ps.comm_by_cid.size(), 2u);
    EXPECT_EQ(ps.comm_by_cid[0].get(), world.get());
    EXPECT_TRUE(ps.cid_alloc.is_used(0));
    EXPECT_TRUE(ps.cid_alloc.is_used(1));
    // World-model comms are not in the exCID table.
    EXPECT_EQ(ps.comm_by_excid.count(world->excid_space.id()), 0u);
  });
}

TEST(RevokeCarveOut, FtTagRendezvousSendSurvivesRevokeAndCompletes) {
  // Recovery talks over a revoked communicator on FT tags, so a pending
  // FT-tag rendezvous send must outlive the revocation and complete once
  // the peer posts the matching FT receive.
  constexpr int kBytes = static_cast<int>(kEagerLimit) * 2;
  const int tag = ft_tag(999, 3);
  std::atomic<bool> sent{false};
  std::atomic<bool> checked{false};
  world_run(1, 2, [&](sim::Process& p) {
    Communicator comm = comm_world().dup();
    ProcState& ps = ProcState::current();
    const auto& s = detail_unwrap(comm);
    std::vector<std::byte> buf(static_cast<std::size_t>(kBytes),
                               std::byte{7});
    // Bounded waits: at a build that poisons the send this fails, not hangs.
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    const auto in_time = [&] {
      return std::chrono::steady_clock::now() < deadline;
    };
    const auto await_flag = [&](const std::atomic<bool>& flag) {
      while (!flag && in_time()) {
        std::this_thread::sleep_for(1ms);
      }
    };
    if (p.rank() == 0) {
      RequestPtr send = ps.isend_impl(s, buf.data(), kBytes, Datatype::byte(),
                                      1, tag, /*sync=*/false);
      sent = true;
      ps.progress_until([&] { return comm.is_revoked() || !in_time(); });
      ASSERT_TRUE(comm.is_revoked());
      EXPECT_FALSE(send->done() &&
                   send->status.error == ErrClass::comm_revoked)
          << "an FT-tag send must survive the revocation";
      checked = true;
      ps.progress_until([&] { return send->done() || !in_time(); });
      ASSERT_TRUE(send->done()) << "the FT-tag send never completed";
      EXPECT_EQ(send->status.error, ErrClass::success);
    } else {
      await_flag(sent);
      comm.revoke();
      await_flag(checked);
      std::vector<std::byte> in(static_cast<std::size_t>(kBytes));
      RequestPtr recv =
          ps.irecv_impl(s, in.data(), kBytes, Datatype::byte(), 0, tag);
      ps.progress_until([&] { return recv->done() || !in_time(); });
      ASSERT_TRUE(recv->done()) << "the FT receive never got its data";
      EXPECT_EQ(recv->status.error, ErrClass::success);
      EXPECT_EQ(recv->status.tag, tag);
      EXPECT_EQ(in, buf);
    }
    comm.free();
  });
}

}  // namespace
}  // namespace sessmpi::detail
