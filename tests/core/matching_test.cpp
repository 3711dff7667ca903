// Matching-semantics tests for the O(1) bin-based engine (DESIGN.md §12).
// These pin the MPI ordering guarantees the per-source bins + wildcard-bin
// arbitration must preserve against the old linear scan: non-overtaking per
// (source, tag), post-order arbitration between directed and ANY_SOURCE
// receives, exactly-once consumption of unexpected packets, and the rule
// that ANY_TAG never matches internal (negative-tag) traffic. The
// concurrency case is the TSan witness for bin access under ps.mu.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "detail/state.hpp"
#include "harness.hpp"
#include "sessmpi/base/stats.hpp"

namespace sessmpi::detail {
namespace {

using sessmpi::testing::world_run;

constexpr int kTag = 17;

TEST(Matching, NonOvertakingWhenPosted) {
  // Receives posted before the sends: bin order must replay send order.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    constexpr int kMsgs = 64;
    if (p.rank() == 1) {
      std::vector<int> got(kMsgs, -1);
      std::vector<Request> reqs;
      reqs.reserve(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        reqs.push_back(world.irecv(&got[static_cast<std::size_t>(i)], 1,
                                   Datatype::int32(), 0, kTag));
      }
      world.barrier();
      Request::wait_all(reqs);
      for (int i = 0; i < kMsgs; ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i) << "overtaken at " << i;
      }
    } else {
      world.barrier();
      for (int i = 0; i < kMsgs; ++i) {
        world.send(&i, 1, Datatype::int32(), 1, kTag);
      }
    }
    world.barrier();
  });
}

TEST(Matching, NonOvertakingWhenUnexpected) {
  // Sends land in the unexpected queue first: stamp order must replay send
  // order when the receives are posted afterwards.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    constexpr int kMsgs = 64;
    if (p.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        world.send(&i, 1, Datatype::int32(), 1, kTag);
      }
      world.barrier();
    } else {
      world.barrier();  // all sends are already buffered unexpected
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        world.recv(&v, 1, Datatype::int32(), 0, kTag);
        EXPECT_EQ(v, i) << "overtaken at " << i;
      }
    }
    world.barrier();
  });
}

TEST(Matching, WildcardBeforeDirectedWinsFirstMessage) {
  // Both posted receives match the incoming message; the earlier post (the
  // ANY_SOURCE one) must win the arbitration, regardless of living in the
  // wildcard bin rather than the source bin.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 1) {
      int wild_v = -1;
      int dir_v = -1;
      Request wild =
          world.irecv(&wild_v, 1, Datatype::int32(), any_source, kTag);
      Request dir = world.irecv(&dir_v, 1, Datatype::int32(), 0, kTag);
      world.barrier();
      Status wild_st = wild.wait();
      dir.wait();
      EXPECT_EQ(wild_v, 100);
      EXPECT_EQ(dir_v, 200);
      EXPECT_EQ(wild_st.source, 0);
    } else {
      world.barrier();
      int first = 100;
      int second = 200;
      world.send(&first, 1, Datatype::int32(), 1, kTag);
      world.send(&second, 1, Datatype::int32(), 1, kTag);
    }
    world.barrier();
  });
}

TEST(Matching, DirectedBeforeWildcardWinsFirstMessage) {
  // Reversed post order: now the directed receive is older and must win.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 1) {
      int wild_v = -1;
      int dir_v = -1;
      Request dir = world.irecv(&dir_v, 1, Datatype::int32(), 0, kTag);
      Request wild =
          world.irecv(&wild_v, 1, Datatype::int32(), any_source, kTag);
      world.barrier();
      dir.wait();
      wild.wait();
      EXPECT_EQ(dir_v, 100);
      EXPECT_EQ(wild_v, 200);
    } else {
      world.barrier();
      int first = 100;
      int second = 200;
      world.send(&first, 1, Datatype::int32(), 1, kTag);
      world.send(&second, 1, Datatype::int32(), 1, kTag);
    }
    world.barrier();
  });
}

TEST(Matching, WildcardRacesDirectedForUnexpectedExactlyOnce) {
  // One packet already buffered unexpected, two receives that both match
  // it: exactly one may consume it (the earlier post), and the loser must
  // stay pending until a second message arrives.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 1) {
      while (!world.iprobe(0, kTag, nullptr)) {
      }
      int wild_v = -1;
      int dir_v = -1;
      Request wild =
          world.irecv(&wild_v, 1, Datatype::int32(), any_source, kTag);
      Request dir = world.irecv(&dir_v, 1, Datatype::int32(), 0, kTag);
      wild.wait();
      EXPECT_EQ(wild_v, 100);   // buffered packet went to the earlier post
      EXPECT_FALSE(dir.test());
      world.barrier();          // releases the second send
      dir.wait();
      EXPECT_EQ(dir_v, 200);
    } else {
      int first = 100;
      world.send(&first, 1, Datatype::int32(), 1, kTag);
      world.barrier();
      int second = 200;
      world.send(&second, 1, Datatype::int32(), 1, kTag);
    }
    world.barrier();
  });
}

TEST(Matching, AnySourceDrainsAcrossSourceBins) {
  // ANY_SOURCE receives must see candidates buffered under *different*
  // source bins and consume each exactly once.
  world_run(1, 3, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      world.barrier();  // both sends are buffered unexpected
      std::set<int> sources;
      for (int i = 0; i < 2; ++i) {
        int v = -1;
        Status st = world.recv(&v, 1, Datatype::int32(), any_source, kTag);
        EXPECT_EQ(v, 10 * st.source);
        EXPECT_TRUE(sources.insert(st.source).second)
            << "source " << st.source << " matched twice";
      }
      EXPECT_EQ(sources, (std::set<int>{1, 2}));
    } else {
      const int v = 10 * p.rank();
      world.send(&v, 1, Datatype::int32(), 0, kTag);
      world.barrier();
    }
    world.barrier();
  });
}

TEST(Matching, AnyTagNeverMatchesInternalTraffic) {
  // A fully wild receive (ANY_SOURCE + ANY_TAG) is outstanding while a
  // barrier runs. Barrier traffic uses internal (negative) tags; if the
  // wildcard could steal it, the barrier would hang or the receive would
  // complete with an internal tag.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 1) {
      int v = -1;
      Request wild = world.irecv(&v, 1, Datatype::int32(), any_source, any_tag);
      world.barrier();
      world.barrier();
      Status st = wild.wait();
      EXPECT_EQ(st.tag, kTag);
      EXPECT_EQ(v, 7);
    } else {
      world.barrier();
      world.barrier();
      int v = 7;
      world.send(&v, 1, Datatype::int32(), 1, kTag);
    }
    world.barrier();
  });
}

TEST(Matching, SeqAnomalyCountedForOutOfRangeSource) {
  // A packet whose match.src is outside the communicator's rank range is
  // wire corruption; the sequence cross-check must count it, not skip it.
  world_run(1, 1, [](sim::Process&) {
    ProcState& ps = ProcState::current();
    const auto before = base::counters().value("pml.seq_anomalies");
    fabric::Packet pkt;
    pkt.kind = fabric::PacketKind::eager;
    pkt.src_rank = 0;
    pkt.dst_rank = 0;
    pkt.match.cid = 0;  // COMM_WORLD's slot
    pkt.match.src = 99;
    pkt.match.tag = kTag;
    pkt.match.seq = 7;
    {
      std::lock_guard lock(ps.mu);
      ps.dispatch(std::move(pkt));
    }
    EXPECT_EQ(base::counters().value("pml.seq_anomalies"), before + 1);
  });
}

TEST(MatchingConcurrency, ConcurrentBinAccessAcrossThreads) {
  // TSan witness: several adopted threads post into and match out of the
  // same communicator's bins concurrently while the sender interleaves
  // across their tag lanes. Per-lane ordering must still hold, and every
  // flow's packets must dispatch in inbox order (no sequence anomaly).
  const auto anomalies = base::counters().value("pml.seq_anomalies");
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    constexpr int kThreads = 3;
    constexpr int kMsgs = 16;
    if (p.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        for (int t = 0; t < kThreads; ++t) {
          const int v = 1000 * t + i;
          world.send(&v, 1, Datatype::int32(), 1, 100 + t);
        }
      }
    } else {
      std::vector<std::thread> workers;
      workers.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&p, &world, t] {
          sim::ProcessAdopter adopt(p.cluster().process(1));
          for (int i = 0; i < kMsgs; ++i) {
            int v = -1;
            world.recv(&v, 1, Datatype::int32(), 0, 100 + t);
            EXPECT_EQ(v, 1000 * t + i);
          }
        });
      }
      for (auto& w : workers) {
        w.join();
      }
    }
    world.barrier();
  });
  EXPECT_EQ(base::counters().value("pml.seq_anomalies"), anomalies);
}

}  // namespace
}  // namespace sessmpi::detail
