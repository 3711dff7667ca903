// Property-style tests for the fault-tolerant agreement protocol: inject a
// process failure at *every* instrumented protocol step (ft::AgreeStep) and
// assert the ULFM agreement contract each time — all survivors decide the
// same value, and that value is the AND of a contribution subset that
// contains every survivor's contribution.
//
// The failure is injected through ft::testing::set_agree_hook: when the
// victim rank reaches the target step it marks itself failed in the fabric
// (exactly what a crash at that instant looks like to the survivors) and
// unwinds out of agree() via a test-local exception. The "never contacted"
// axis instead lets a follower kill its coordinator just before its first
// push, so that push is the follower's first message to a dead peer.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "../core/harness.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/pmix/client.hpp"

namespace sessmpi {
namespace {

using testing::world_run;

constexpr int kRanks = 4;
constexpr std::array<std::uint64_t, kRanks> kContrib = {0xFFFFu, 0xFFFEu,
                                                        0xFFFDu, 0xFFFBu};

/// Thrown by the hook to unwind the victim out of agree() post-mortem.
struct KilledByHook {};

/// RAII: never leak the global hook into other tests, even on failure.
struct HookGuard {
  explicit HookGuard(ft::testing::AgreeHook h) {
    ft::testing::set_agree_hook(std::move(h));
  }
  ~HookGuard() { ft::testing::set_agree_hook(nullptr); }
};

const char* step_name(ft::AgreeStep s) {
  switch (s) {
    case ft::AgreeStep::enter: return "enter";
    case ft::AgreeStep::follower_pre_push: return "follower_pre_push";
    case ft::AgreeStep::follower_post_push: return "follower_post_push";
    case ft::AgreeStep::coordinator_gathered: return "coordinator_gathered";
    case ft::AgreeStep::pre_flood: return "pre_flood";
    case ft::AgreeStep::mid_flood: return "mid_flood";
    case ft::AgreeStep::post_flood: return "post_flood";
    default: return "?";
  }
}

/// Whether every pair has exchanged a message (and so resolved its
/// endpoint through the lazy modex) before the agreement starts.
enum class Contact { none, all_pairs };

/// Every rank sends to and receives from every other rank once, then a
/// PMIx fence: when any rank leaves it, every rank's exchange is done.
void contact_all_pairs(sim::Process& p) {
  Communicator world = comm_world();
  const int n = world.size();
  const int me = world.rank();
  for (int k = 1; k < n; ++k) {
    std::int32_t out = me;
    std::int32_t in = -1;
    world.sendrecv(&out, 1, Datatype::int32(), (me + k) % n, 5, &in, 1,
                   Datatype::int32(), (me + n - k) % n, 5);
  }
  std::vector<pmix::ProcId> all(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    all[static_cast<std::size_t>(r)] = r;
  }
  ASSERT_TRUE(p.pmix_client->fence(all).ok());
}

/// Run one agreement on kRanks ranks with `victim` dying when `killer`
/// reaches `step` (the victim itself unless given); assert survivor
/// uniformity and contribution-subset soundness.
void check_agree_with_death_at(ft::AgreeStep step, int victim,
                               int killer = -1,
                               Contact contact = Contact::none) {
  if (killer < 0) {
    killer = victim;
  }
  SCOPED_TRACE(std::string("step=") + step_name(step) +
               " victim=" + std::to_string(victim) +
               " killer=" + std::to_string(killer) + " contact=" +
               (contact == Contact::none ? "none" : "all_pairs"));

  std::array<std::uint64_t, kRanks> decided{};
  std::array<bool, kRanks> survived{};
  std::atomic<bool> killed{false};
  HookGuard guard{[&](ft::AgreeStep s, int me) {
    if (s != step || me != killer || killed.exchange(true)) {
      return;
    }
    if (killer == victim) {
      sim::Cluster::current().fail();
      throw KilledByHook{};
    }
    sim::Cluster::current().cluster().fail_rank(victim);
  }};

  world_run(1, kRanks, [&](sim::Process& p) {
    const auto me = static_cast<std::size_t>(p.rank());
    if (contact == Contact::all_pairs) {
      contact_all_pairs(p);
    }
    try {
      decided[me] = comm_world().agree(kContrib[me]);
      survived[me] = true;
    } catch (const KilledByHook&) {
      // Crashed at the injected step; world_run's finalize is local-only.
    } catch (const Error&) {
      // Killed by a peer while blocked in agree(); anyone else rethrows.
      if (!p.failed()) {
        throw;
      }
    }
  });

  // The victim may or may not have reached the step (a kill at, say,
  // coordinator_gathered never fires on a follower-only run) — but with a
  // single failure there must be at least kRanks - 1 survivors.
  int survivors = 0;
  std::uint64_t and_survivors = ~0ull;
  std::uint64_t and_all = ~0ull;
  for (std::size_t r = 0; r < kRanks; ++r) {
    and_all &= kContrib[r];
    if (survived[r]) {
      ++survivors;
      and_survivors &= kContrib[r];
    }
  }
  ASSERT_GE(survivors, kRanks - 1);

  // Uniformity: every survivor decided the same value.
  std::uint64_t value = 0;
  bool first = true;
  for (std::size_t r = 0; r < kRanks; ++r) {
    if (!survived[r]) {
      continue;
    }
    if (first) {
      value = decided[r];
      first = false;
    }
    EXPECT_EQ(decided[r], value) << "rank " << r << " decided differently";
  }

  // Soundness: the decision is the AND of some subset S of contributions
  // with survivors ⊆ S ⊆ all ranks — so it can only clear bits relative to
  // the survivor AND, and only down to the all-ranks AND.
  EXPECT_EQ(value & and_survivors, value);
  EXPECT_EQ(value & and_all, and_all);
}

TEST(AgreeProperty, UniformUnderCoordinatorDeathAtEveryStep) {
  // Rank 0 is the initial coordinator; these are the steps it reaches.
  for (const ft::AgreeStep step :
       {ft::AgreeStep::enter, ft::AgreeStep::coordinator_gathered,
        ft::AgreeStep::pre_flood, ft::AgreeStep::mid_flood,
        ft::AgreeStep::post_flood}) {
    check_agree_with_death_at(step, /*victim=*/0);
  }
}

TEST(AgreeProperty, UniformUnderFollowerDeathAtEveryStep) {
  for (const ft::AgreeStep step :
       {ft::AgreeStep::enter, ft::AgreeStep::follower_pre_push,
        ft::AgreeStep::follower_post_push, ft::AgreeStep::pre_flood,
        ft::AgreeStep::mid_flood, ft::AgreeStep::post_flood}) {
    check_agree_with_death_at(step, /*victim=*/2);
  }
}

TEST(AgreeProperty, UniformWhenCoordinatorDiesBeforeFirstContact) {
  // Each follower in turn kills the coordinator it just chose, right before
  // its first push. Without prior contact that push resolves a dead,
  // never-contacted peer through the lazy modex's negative cache; it must
  // fail over exactly like a fabric-detected death. With every pair
  // contacted first, the same kill hits a cached endpoint instead.
  for (const Contact contact : {Contact::none, Contact::all_pairs}) {
    for (int killer = 1; killer < kRanks; ++killer) {
      check_agree_with_death_at(ft::AgreeStep::follower_pre_push,
                                /*victim=*/0, killer, contact);
    }
  }
}

}  // namespace
}  // namespace sessmpi
