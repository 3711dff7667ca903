#include "sessmpi/pmix/client.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>

namespace sessmpi::pmix {
namespace {

using namespace std::chrono_literals;

/// Harness: a runtime plus one client per process, each driven on its own
/// thread by `run_all`.
class ClientHarness {
 public:
  explicit ClientHarness(base::Topology topo)
      : runtime_(topo, base::CostModel::zero()) {
    // The DVM normally defines mpi://world; this harness bypasses PRRTE.
    std::vector<ProcId> world(static_cast<std::size_t>(topo.size()));
    for (int i = 0; i < topo.size(); ++i) {
      world[static_cast<std::size_t>(i)] = i;
    }
    runtime_.psets().define(kPsetWorld, std::move(world));
    for (int r = 0; r < topo.size(); ++r) {
      clients_.push_back(std::make_unique<PmixClient>(runtime_, r));
    }
  }

  PmixRuntime& runtime() { return runtime_; }
  PmixClient& client(ProcId p) { return *clients_[static_cast<std::size_t>(p)]; }

  void run_all(const std::function<void(PmixClient&)>& fn) {
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (auto& c : clients_) {
      threads.emplace_back([&fn, &failed, &c] {
        try {
          fn(*c);
        } catch (...) {
          failed.store(true);
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
    ASSERT_FALSE(failed.load());
  }

 private:
  PmixRuntime runtime_;
  std::vector<std::unique_ptr<PmixClient>> clients_;
};

TEST(PmixClient, FenceOverAllProcsCompletes) {
  ClientHarness h{{2, 2}};
  std::atomic<int> after{0};
  h.run_all([&](PmixClient& c) {
    ASSERT_TRUE(c.fence({0, 1, 2, 3}).ok());
    ++after;
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(PmixClient, FenceWithCollectDataPublishesModex) {
  ClientHarness h{{2, 2}};
  h.run_all([&](PmixClient& c) {
    // PMIx_Put + PMIx_Commit, then a plain fence: once it completes every
    // peer's committed blob is visible to every participant.
    c.put("ep", std::uint64_t(1000 + c.self()));
    c.commit();
    ASSERT_TRUE(c.fence({0, 1, 2, 3}).ok());
    for (ProcId p = 0; p < 4; ++p) {
      auto v = c.get(p, "ep", 2s);
      ASSERT_TRUE(v.ok());
      EXPECT_EQ(std::get<std::uint64_t>(v.value()), 1000u + static_cast<unsigned>(p));
    }
  });
}

TEST(PmixClient, FenceOverSubsetOnly) {
  ClientHarness h{{2, 2}};
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (ProcId p : {0, 2}) {
    threads.emplace_back([&h, &done, p] {
      if (h.client(p).fence({0, 2}).ok()) {
        ++done;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(done.load(), 2);
}

TEST(PmixClient, GroupConstructAssignsUniqueNonZeroPgcid) {
  ClientHarness h{{2, 2}};
  std::vector<std::uint64_t> pgcids(4);
  h.run_all([&](PmixClient& c) {
    auto res = c.group_construct("mygrp", {0, 1, 2, 3});
    ASSERT_TRUE(res.ok());
    pgcids[static_cast<std::size_t>(c.self())] = res.value().pgcid;
  });
  // Everyone observes the same, non-zero PGCID (paper: unique 64-bit id).
  EXPECT_NE(pgcids[0], 0u);
  for (auto v : pgcids) {
    EXPECT_EQ(v, pgcids[0]);
  }
  auto rec = h.runtime().groups().lookup("mygrp");
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->pgcid, pgcids[0]);
  EXPECT_EQ(rec->leader, 0);
}

TEST(PmixClient, SequentialGroupConstructsYieldFreshPgcids) {
  ClientHarness h{{1, 2}};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint64_t> pgcid(2);
    h.run_all([&](PmixClient& c) {
      const std::string name = "grp" + std::to_string(i);
      auto res = c.group_construct(name, {0, 1});
      ASSERT_TRUE(res.ok());
      pgcid[static_cast<std::size_t>(c.self())] = res.value().pgcid;
      ASSERT_TRUE(c.group_destruct(name, {0, 1}).ok());
    });
    EXPECT_EQ(pgcid[0], pgcid[1]);
    EXPECT_TRUE(seen.insert(pgcid[0]).second) << "PGCID reused";
  }
}

TEST(PmixClient, GroupConstructWithExistingNameFails) {
  ClientHarness h{{1, 2}};
  h.run_all([&](PmixClient& c) {
    ASSERT_TRUE(c.group_construct("g", {0, 1}).ok());
  });
  h.run_all([&](PmixClient& c) {
    auto res = c.group_construct("g", {0, 1});
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error(), base::ErrClass::rte_exists);
  });
}

TEST(PmixClient, GroupConstructNonMemberRejected) {
  ClientHarness h{{1, 2}};
  auto res = h.client(0).group_construct("g", {1});
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error(), base::ErrClass::rte_bad_param);
}

TEST(PmixClient, GroupDestructInvalidatesName) {
  ClientHarness h{{2, 2}};
  h.run_all([&](PmixClient& c) {
    ASSERT_TRUE(c.group_construct("tmp", {0, 1, 2, 3}).ok());
    ASSERT_TRUE(c.group_destruct("tmp", {0, 1, 2, 3}).ok());
  });
  EXPECT_FALSE(h.runtime().groups().lookup("tmp").has_value());
  // Name can be reused after destruct.
  h.run_all([&](PmixClient& c) {
    EXPECT_TRUE(c.group_construct("tmp", {0, 1, 2, 3}).ok());
  });
}

TEST(PmixClient, GroupConstructTimesOutWhenMemberAbsent) {
  ClientHarness h{{1, 2}};
  GroupDirectives dirs;
  dirs.timeout = base::Nanos(30ms);
  auto res = h.client(0).group_construct("g", {0, 1}, dirs);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error(), base::ErrClass::rte_timeout);
}

TEST(PmixClient, GroupConstructAbortsOnFailedMember) {
  ClientHarness h{{1, 3}};
  h.runtime().notify_proc_failed(2);
  GroupDirectives dirs;
  dirs.error_on_early_termination = true;
  auto res = h.client(0).group_construct("g", {0, 1, 2}, dirs);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.error(), base::ErrClass::rte_proc_failed);
}

TEST(PmixClient, LeaderDirectiveRespected) {
  ClientHarness h{{1, 2}};
  h.run_all([&](PmixClient& c) {
    GroupDirectives dirs;
    dirs.leader = 1;
    auto res = c.group_construct("led", {0, 1}, dirs);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().leader, 1);
  });
}

TEST(PmixClient, PgcidNotAssignedWhenNotRequested) {
  ClientHarness h{{1, 2}};
  h.run_all([&](PmixClient& c) {
    GroupDirectives dirs;
    dirs.request_pgcid = false;
    auto res = c.group_construct("nopgcid", {0, 1}, dirs);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().pgcid, 0u);
  });
}

TEST(PmixClient, GroupLeaveNotifiesRemainingMembers) {
  ClientHarness h{{1, 3}};
  h.run_all([&](PmixClient& c) {
    ASSERT_TRUE(c.group_construct("g", {0, 1, 2}).ok());
  });
  ASSERT_TRUE(h.client(1).group_leave("g").ok());
  auto ev0 = h.client(0).poll_events();
  ASSERT_EQ(ev0.size(), 1u);
  EXPECT_EQ(ev0[0].kind, EventKind::group_member_left);
  EXPECT_EQ(ev0[0].about, 1);
  EXPECT_EQ(ev0[0].group, "g");
  EXPECT_EQ(h.runtime().groups().lookup("g")->members,
            (std::vector<ProcId>{0, 2}));
}

TEST(PmixClient, ProcFailureRaisesEventsToNotifyingGroups) {
  ClientHarness h{{1, 3}};
  h.run_all([&](PmixClient& c) {
    GroupDirectives dirs;
    dirs.notify_on_termination = true;
    ASSERT_TRUE(c.group_construct("watched", {0, 1, 2}, dirs).ok());
  });
  h.runtime().notify_proc_failed(2);
  auto ev = h.client(0).poll_events();
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].kind, EventKind::proc_failed);
  EXPECT_EQ(ev[0].about, 2);
  EXPECT_EQ(ev[0].group, "watched");
}

TEST(PmixClient, QueriesReportPsetsAndGroups) {
  ClientHarness h{{2, 2}};
  h.runtime().psets().define("app://half", {0, 1});
  PmixClient& c = h.client(0);
  EXPECT_EQ(c.query_num_psets(), 2u);  // mpi://world + app://half
  auto names = c.query_pset_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "mpi://world"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "app://half"), names.end());

  auto world = c.query_pset_membership(kPsetWorld);
  ASSERT_TRUE(world.ok());
  EXPECT_EQ(world.value().size(), 4u);

  auto self = c.query_pset_membership(kPsetSelf);
  ASSERT_TRUE(self.ok());
  EXPECT_EQ(self.value(), std::vector<ProcId>{0});

  auto shared = c.query_pset_membership(kPsetShared);
  ASSERT_TRUE(shared.ok());
  EXPECT_EQ(shared.value(), (std::vector<ProcId>{0, 1}));

  auto shared3 = h.client(3).query_pset_membership(kPsetShared);
  ASSERT_TRUE(shared3.ok());
  EXPECT_EQ(shared3.value(), (std::vector<ProcId>{2, 3}));

  EXPECT_FALSE(c.query_pset_membership("app://missing").ok());
  EXPECT_EQ(c.query_num_groups(), 0u);
}

TEST(PmixClient, ConcurrentDistinctGroupConstructs) {
  // Two disjoint halves construct different groups at the same time.
  ClientHarness h{{2, 2}};
  std::vector<std::uint64_t> pgcids(4);
  h.run_all([&](PmixClient& c) {
    const bool low = c.self() < 2;
    const std::string name = low ? "low" : "high";
    const std::vector<ProcId> members =
        low ? std::vector<ProcId>{0, 1} : std::vector<ProcId>{2, 3};
    auto res = c.group_construct(name, members);
    ASSERT_TRUE(res.ok());
    pgcids[static_cast<std::size_t>(c.self())] = res.value().pgcid;
  });
  EXPECT_EQ(pgcids[0], pgcids[1]);
  EXPECT_EQ(pgcids[2], pgcids[3]);
  EXPECT_NE(pgcids[0], pgcids[2]);
}

}  // namespace
}  // namespace sessmpi::pmix
