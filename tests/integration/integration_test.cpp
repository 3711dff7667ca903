// Cross-module integration tests: the paper's end-to-end scenarios —
// library compartmentalization (HPCC style, §IV-D), fault isolation between
// sessions (§II-C), re-initialization after failure, and mixed-model
// workloads under the calibrated (non-zero) cost model.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "../core/harness.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/quo/quo.hpp"
#include "sessmpi/sim/chaos.hpp"

namespace sessmpi {
namespace {

using namespace std::chrono_literals;
using testing::mpi_run;

TEST(Integration, LibraryComponentCreatesOwnSession) {
  // §IV-D: the application uses the World model; an internal component
  // (like HPCC's main_bench_lat_bw) creates its own session + comm and runs
  // its traffic in isolation.
  mpi_run(2, 2, [](sim::Process& p) {
    init();
    Communicator world = comm_world();

    // "Component" scope:
    {
      Session s = Session::init();
      Communicator comp = Communicator::create_from_group(
          s.group_from_pset("mpi://world"), "component");
      // Ring over the component comm while the app also uses world.
      const int n = comp.size();
      const int next = (comp.rank() + 1) % n;
      const int prev = (comp.rank() - 1 + n) % n;
      std::int64_t in = -1;
      const std::int64_t out = comp.rank();
      Request r = comp.irecv(&in, 1, Datatype::int64(), prev, 0);
      comp.send(&out, 1, Datatype::int64(), next, 0);
      r.wait();
      EXPECT_EQ(in, prev);
      world.barrier();  // app-level traffic interleaved
      comp.free();
      s.finalize();
    }

    // App continues unaffected.
    std::int64_t one = 1, sum = 0;
    world.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 4);
    finalize();
    (void)p;
  });
}

TEST(Integration, FaultIsolationBetweenSessions) {
  // §II-C: a failure in one group is contained; a disjoint session keeps
  // working. Ranks 0,1 form "clients", ranks 2,3 form "servers"; client 1
  // dies, servers keep communicating.
  sim::Cluster cluster{testing::zero_opts(1, 4)};
  std::atomic<int> server_rounds{0};
  cluster.run([&](sim::Process& p) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    const bool is_server = p.rank() >= 2;
    pmix::PmixClient& client = *p.pmix_client;

    pmix::GroupDirectives dirs;
    dirs.notify_on_termination = true;
    auto grp = client.group_construct(is_server ? "servers" : "clients",
                                      is_server ? std::vector<pmix::ProcId>{2, 3}
                                                : std::vector<pmix::ProcId>{0, 1},
                                      dirs);
    ASSERT_TRUE(grp.ok());

    Group g = Group::of(is_server ? std::vector<base::Rank>{2, 3}
                                  : std::vector<base::Rank>{0, 1});
    Communicator comm = Communicator::create_from_group(
        g, is_server ? "srv" : "cli", Info::null(),
        Errhandler::errors_return());

    if (p.rank() == 1) {
      // Client 1 fails hard.
      p.fail();
      return;
    }
    if (p.rank() == 0) {
      // Client 0 observes the failure through PMIx events (polled via
      // fences) rather than hanging forever: a fence with the dead member
      // aborts.
      auto st = client.fence({0, 1}, base::Nanos(std::chrono::seconds(2)));
      EXPECT_FALSE(st.ok());
      return;
    }
    // Servers: unaffected, keep exchanging.
    for (int i = 0; i < 5; ++i) {
      std::int64_t one = 1, sum = 0;
      comm.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
      EXPECT_EQ(sum, 2);
      ++server_rounds;
    }
    comm.free();
    s.finalize();
  });
  EXPECT_EQ(server_rounds.load(), 10);  // 5 rounds x 2 servers
}

TEST(Integration, ReinitAfterFailureWithFewerProcesses) {
  // §II-C(a): roll-forward — after a peer dies, survivors finalize and
  // re-initialize MPI over a site-defined pset that excludes the casualty.
  sim::Cluster::Options opts = testing::zero_opts(1, 3);
  opts.extra_psets.emplace_back("app://survivors",
                                std::vector<pmix::ProcId>{0, 1});
  sim::Cluster cluster{opts};
  cluster.run([](sim::Process& p) {
    Session s1 = Session::init(Info::null(), Errhandler::errors_return());
    if (p.rank() == 2) {
      p.fail();  // dies before ever joining the workload
      return;
    }
    // Survivors: first attempt involves the dead rank and fails.
    auto st = p.pmix_client->fence({0, 1, 2},
                                   base::Nanos(std::chrono::seconds(2)));
    EXPECT_FALSE(st.ok());
    s1.finalize();

    // Re-initialize with the reduced pset and carry on.
    Session s2 = Session::init(Info::null(), Errhandler::errors_return());
    Communicator c = Communicator::create_from_group(
        s2.group_from_pset("app://survivors"), "retry");
    std::int64_t one = 1, sum = 0;
    c.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 2);
    c.free();
    s2.finalize();
  });
}

TEST(Integration, CalibratedCostModelEndToEnd) {
  // Smoke-run the full stack with real injected costs (the bench
  // configuration) to make sure nothing depends on the zero model.
  sim::Cluster::Options opts;
  opts.topo = {2, 2};
  opts.cost = base::CostModel::calibrated();
  sim::Cluster cluster{opts};
  cluster.run([](sim::Process& p) {
    base::Stopwatch sw;
    init();
    const double init_ms = sw.elapsed_ms();
    EXPECT_GT(init_ms, 1.0) << "calibrated init cost should be visible";
    Communicator world = comm_world();
    std::int64_t one = 1, sum = 0;
    world.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 4);

    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "cal");
    c.barrier();
    c.free();
    s.finalize();
    finalize();
    (void)p;
  });
}

TEST(Integration, ManyCommunicatorsAcrossSessions) {
  // Stress: several sessions, several comms each, interleaved traffic.
  mpi_run(1, 4, [](sim::Process& p) {
    std::vector<Session> sessions;
    std::vector<Communicator> comms;
    for (int i = 0; i < 3; ++i) {
      sessions.push_back(Session::init());
      comms.push_back(Communicator::create_from_group(
          sessions.back().group_from_pset("mpi://world"),
          "many" + std::to_string(i)));
    }
    for (int round = 0; round < 3; ++round) {
      for (auto& c : comms) {
        std::int64_t v = p.rank(), sum = 0;
        c.allreduce(&v, &sum, 1, Datatype::int64(), Op::sum());
        EXPECT_EQ(sum, 6);
      }
    }
    for (auto& c : comms) {
      c.free();
    }
    for (auto& s : sessions) {
      s.finalize();
    }
  });
}

void run_lossy_full_mpi(const fabric::CcConfig& cc) {
  // The reliable-delivery acceptance scenario (DESIGN.md §9): with a seeded
  // 10% drop filter installed for the WHOLE run (it is never disabled), a
  // full MPI workload — comm construction, a tagged ring exchange, a
  // nonblocking barrier, and a ULFM revoke/shrink after a real failure —
  // completes with exactly-once delivery. Every EXPECT on received values
  // below is a lost-or-duplicated-message detector.
  sim::Cluster::Options opts = testing::zero_opts(1, 4);
  // Scale the RTOs to the zero-cost wire so the retransmit tail is
  // milliseconds, and raise the retry cap so 10% loss cannot spuriously
  // escalate a live rank (p ~ 0.19^40 per packet).
  opts.reliability.tick_ns = 100'000;
  opts.reliability.rto_base_ns = 1'000'000;
  opts.reliability.rto_cap_ns = 8'000'000;
  opts.reliability.max_retries = 40;
  opts.reliability.cc = cc;
  sim::Cluster cluster{opts};

  sim::ChaosPolicy pol;
  pol.seed = 2026;
  pol.drop_fraction = 0.1;
  sim::ChaosMonkey monkey{cluster, pol};

  const std::uint64_t anomalies_before =
      base::counters().value("pml.seq_anomalies");

  cluster.run([](sim::Process& p) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "lossy", Info::null(),
        Errhandler::errors_return());

    // Tagged ring exchange: a lost or duplicated packet shows up as a wrong
    // value, a wrong round, or a hang.
    const int n = comm.size();
    const int next = (comm.rank() + 1) % n;
    const int prev = (comm.rank() - 1 + n) % n;
    for (int round = 0; round < 20; ++round) {
      std::int64_t in = -1;
      const std::int64_t out = comm.rank() * 1000 + round;
      Request r = comm.irecv(&in, 1, Datatype::int64(), prev, round);
      comm.send(&out, 1, Datatype::int64(), next, round);
      r.wait();
      EXPECT_EQ(in, prev * 1000 + round);
    }

    // Nonblocking barrier under loss.
    comm.ibarrier().wait();

    // ULFM recovery under loss: rank 3 dies mid-barrier; survivors revoke,
    // shrink, and keep computing — all over the still-lossy fabric.
    if (p.rank() == 3) {
      std::this_thread::sleep_for(20ms);
      p.fail();
      return;
    }
    EXPECT_THROW(comm.barrier(), Error);
    if (p.rank() == 0) {
      comm.revoke();
    } else {
      // Loss skews when each survivor's barrier aborts, so rank 0's revoke
      // flood may land before or after this post: a request completed with
      // comm_revoked and a rejected post are both correct observations.
      try {
        std::int32_t v = 0;
        Request r = comm.irecv(&v, 1, Datatype::int32(), 0, 99);
        EXPECT_EQ(r.wait().error, ErrClass::comm_revoked);
      } catch (const Error& e) {
        EXPECT_EQ(e.error_class(), ErrClass::comm_revoked);
      }
    }
    EXPECT_TRUE(comm.is_revoked());

    Communicator small = comm.shrink();
    EXPECT_EQ(small.size(), 3);
    std::int64_t one = 1, sum = 0;
    small.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 3);

    small.free();
    comm.free();
    s.finalize();
  });

  fabric::Fabric& f = cluster.fabric();
  // The drop filter really fired, and the recovery machinery really ran.
  EXPECT_GT(f.chaos_dropped(), 0u);
  EXPECT_GT(f.retransmits(), 0u);
  // Dedup only ever fires on retransmit-induced duplicates.
  EXPECT_LE(f.dup_suppressed(), f.retransmits());
  // The PML's per-peer sequence cross-check saw no gap, no overtake, and no
  // duplicate above the fabric.
  EXPECT_EQ(base::counters().value("pml.seq_anomalies"), anomalies_before);
  // (Fast-retransmit counters are asserted in the bulk-traffic reliability
  // tests; this sparse ring workload rarely has packets in flight behind a
  // hole, so its losses legitimately repair via RTO.)
  (void)cc;
}

TEST(Integration, LossyLinksSurviveFullMpiRun) {
  run_lossy_full_mpi(fabric::CcConfig{});  // the default window, one rail
}

TEST(Integration, LossyLinksSurviveFullMpiRunUnderAimd) {
  // Same scenario with a congestion window small enough that senders stall
  // on it: windowing must never change MPI-visible semantics, only pacing.
  fabric::CcConfig cc;
  cc.initial_window = 2;
  cc.max_cwnd = 4;
  run_lossy_full_mpi(cc);
}

TEST(Integration, QuoOverSessionsUnderCalibratedCosts) {
  sim::Cluster::Options opts;
  opts.topo = {1, 4};
  opts.cost = base::CostModel::calibrated();
  sim::Cluster cluster{opts};
  cluster.run([](sim::Process&) {
    init();
    quo::QuoContext::Options qopts;
    qopts.barrier = quo::BarrierKind::sessions;
    quo::QuoContext q = quo::QuoContext::create(comm_world(), qopts);
    for (int i = 0; i < 3; ++i) {
      q.barrier();
    }
    q.free();
    finalize();
  });
}

}  // namespace
}  // namespace sessmpi
