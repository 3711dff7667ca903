// Failure-containment tests (§II-C): operations pinned on a dead peer must
// complete with rte_proc_failed instead of hanging survivors.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "detail/state.hpp"
#include "harness.hpp"

namespace sessmpi {
namespace {

using testing::world_run;
using namespace std::chrono_literals;

TEST(Failure, BlockingRecvFromDeadRankAborts) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    world.set_errhandler(Errhandler::errors_return());
    if (p.rank() == 1) {
      p.fail();
      return;
    }
    std::int32_t v = 0;
    EXPECT_THROW(world.recv(&v, 1, Datatype::int32(), 1, 0), Error);
  });
}

TEST(Failure, PendingIrecvCompletesWithError) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      std::int32_t v = 0;
      Request r = world.irecv(&v, 1, Datatype::int32(), 1, 0);
      Status st = r.wait();
      EXPECT_EQ(st.error, ErrClass::rte_proc_failed);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      p.fail();
    }
  });
}

TEST(Failure, BarrierWithDeadRankAborts) {
  world_run(1, 3, [](sim::Process& p) {
    Communicator world = comm_world();
    world.set_errhandler(Errhandler::errors_return());
    if (p.rank() == 2) {
      p.fail();
      return;
    }
    EXPECT_THROW(world.barrier(), Error);
  });
}

TEST(Failure, SsendToDeadRankAborts) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    world.set_errhandler(Errhandler::errors_return());
    if (p.rank() == 1) {
      p.fail();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::int32_t v = 5;
    EXPECT_THROW(world.ssend(&v, 1, Datatype::int32(), 1, 0), Error);
  });
}

TEST(Failure, RendezvousSendToDeadRankAborts) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    world.set_errhandler(Errhandler::errors_return());
    if (p.rank() == 1) {
      p.fail();
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::vector<std::byte> big(kEagerLimit * 2, std::byte{1});
    EXPECT_THROW(world.send(big.data(), static_cast<int>(big.size()),
                            Datatype::byte(), 1, 0),
                 Error);
  });
}

TEST(Failure, AnySourceRecvKeepsWaitingForLiveSenders) {
  // A wildcard receive must not abort just because *some* rank died — a
  // live sender can still match it.
  world_run(1, 3, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 2) {
      p.fail();
      return;
    }
    if (p.rank() == 0) {
      std::int32_t v = 0;
      Status st = world.recv(&v, 1, Datatype::int32(), any_source, 7);
      EXPECT_EQ(st.source, 1);
      EXPECT_EQ(v, 99);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      const std::int32_t v = 99;
      world.send(&v, 1, Datatype::int32(), 0, 7);
    }
  });
}

TEST(Failure, SurvivorsReinitializeAndContinue) {
  // The checkpoint_restart example pattern as a test: survivors tear down
  // and rebuild over a reduced pset.
  sim::Cluster::Options opts = testing::zero_opts(1, 3);
  opts.extra_psets.emplace_back("app://rest", std::vector<pmix::ProcId>{0, 1});
  sim::Cluster cluster{opts};
  cluster.run([](sim::Process& p) {
    Session s1 = Session::init(Info::null(), Errhandler::errors_return());
    Communicator c1 = Communicator::create_from_group(
        s1.group_from_pset("mpi://world"), "before", Info::null(),
        Errhandler::errors_return());
    if (p.rank() == 2) {
      p.fail();
      return;
    }
    // The dead rank breaks the full-world barrier.
    EXPECT_THROW(c1.barrier(), Error);
    c1.free();
    s1.finalize();

    Session s2 = Session::init(Info::null(), Errhandler::errors_return());
    Communicator c2 = Communicator::create_from_group(
        s2.group_from_pset("app://rest"), "after");
    std::int64_t one = 1, sum = 0;
    c2.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 2);
    c2.free();
    s2.finalize();
  });
}

// Every kind of pending point-to-point operation x both causes that end
// one: the request completes with the cause's error class and names the
// operation's own peer and tag. Rank 0 holds the operation toward rank 1;
// rank 1 dies or revokes once the operation is pending.
TEST(Failure, PendingOpEndsWithItsPeerAndTagWhateverTheCause) {
  enum class Op { posted_recv, rndv_send, sync_send, matched_rndv_recv };
  enum class Cause { peer_death, revoke };
  struct Cell {
    Op op;
    const char* op_name;
  };
  const Cell ops[] = {{Op::posted_recv, "posted receive"},
                      {Op::rndv_send, "rendezvous send"},
                      {Op::sync_send, "synchronous send"},
                      {Op::matched_rndv_recv, "matched rendezvous receive"}};
  constexpr int kTag = 5;
  constexpr int kBig = static_cast<int>(kEagerLimit) * 2;

  for (const Cell& cell : ops) {
    for (const Cause cause : {Cause::peer_death, Cause::revoke}) {
      // Named in each assertion: the checks run on rank threads, which a
      // SCOPED_TRACE on this thread does not reach.
      const std::string where =
          std::string(cell.op_name) +
          (cause == Cause::peer_death ? " / peer death" : " / revoke");
      const ErrClass want = cause == Cause::peer_death
                                ? ErrClass::rte_proc_failed
                                : ErrClass::comm_revoked;
      std::atomic<bool> rts_sent{false};
      std::atomic<bool> pending{false};
      world_run(1, 2, [&](sim::Process& p) {
        Communicator comm = comm_world().dup();
        detail::ProcState& ps = detail::ProcState::current();
        const auto& s = detail_unwrap(comm);
        std::vector<std::byte> buf(static_cast<std::size_t>(kBig),
                                   std::byte{1});
        // Bounded waits: a missing completion fails the cell, never hangs.
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        const auto in_time = [&] {
          return std::chrono::steady_clock::now() < deadline;
        };
        if (p.rank() == 1) {
          if (cell.op == Op::matched_rndv_recv) {
            // The RTS goes out now; the data would only ship from this
            // rank's progress, which it never makes before the cause.
            ps.isend_impl(s, buf.data(), kBig, Datatype::byte(), 0, kTag,
                          /*sync=*/false);
            rts_sent = true;
          }
          while (!pending && in_time()) {
            std::this_thread::sleep_for(1ms);
          }
          if (cause == Cause::peer_death) {
            p.fail();
            return;
          }
          comm.revoke();
          comm.free();
          return;
        }

        detail::RequestPtr req;
        switch (cell.op) {
          case Op::posted_recv:
            req = ps.irecv_impl(s, buf.data(), 1, Datatype::byte(), 1, kTag);
            break;
          case Op::rndv_send:
            req = ps.isend_impl(s, buf.data(), kBig, Datatype::byte(), 1, kTag,
                                /*sync=*/false);
            break;
          case Op::sync_send:
            req = ps.isend_impl(s, buf.data(), 1, Datatype::byte(), 1, kTag,
                                /*sync=*/true);
            break;
          case Op::matched_rndv_recv:
            req = ps.irecv_impl(s, buf.data(), kBig, Datatype::byte(), 1, kTag);
            while (!rts_sent && in_time()) {
              std::this_thread::sleep_for(1ms);
            }
            // Matched once the RTS parks the receive under its token.
            ps.progress_until([&] {
              std::lock_guard lock(ps.mu);
              return !ps.recv_tokens.empty() || !in_time();
            });
            break;
        }
        ASSERT_FALSE(req->done()) << where << ": must still be pending";
        pending = true;
        ps.progress_until([&] { return req->done() || !in_time(); });
        ASSERT_TRUE(req->done()) << where << ": the cause never ended it";
        EXPECT_EQ(req->status.error, want) << where;
        EXPECT_EQ(req->status.source, 1) << where;
        EXPECT_EQ(req->status.tag, kTag) << where;
        comm.free();
      });
    }
  }
}

}  // namespace
}  // namespace sessmpi
