// Failure matrix for the collective engine: barrier, bcast, allreduce and
// their nonblocking forms, on the topology plan ("auto") and the flat plan,
// with one rank of a 2x4 cluster killed mid-run — a node leader (rank 4),
// then a non-leader (rank 5). Survivors repeat the operation until it
// fails: each must end with rte_proc_failed or comm_revoked instead of
// hanging, and the ULFM recipe (revoke, shrink, allreduce) must then work
// over the seven survivors.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi {
namespace {

using namespace std::chrono_literals;

enum class CollOp { barrier, bcast, allreduce, ibarrier, ibcast, iallreduce };

const char* op_name(CollOp op) {
  switch (op) {
    case CollOp::barrier:
      return "barrier";
    case CollOp::bcast:
      return "bcast";
    case CollOp::allreduce:
      return "allreduce";
    case CollOp::ibarrier:
      return "ibarrier";
    case CollOp::ibcast:
      return "ibcast";
    case CollOp::iallreduce:
      return "iallreduce";
  }
  return "?";
}

struct FailCase {
  CollOp op;
  const char* algo;
  int victim;  ///< 4 leads node 1 on the topology plan; 5 does not
};

/// One attempt of `op`; the error class it ended with.
ErrClass attempt(const Communicator& c, CollOp op) {
  constexpr int kCount = 512;  // 4 KiB
  std::vector<std::int64_t> buf(kCount, c.rank());
  std::vector<std::int64_t> out(kCount, 0);
  try {
    switch (op) {
      case CollOp::barrier:
        c.barrier();
        break;
      case CollOp::bcast:
        c.bcast(buf.data(), kCount, Datatype::int64(), 0);
        break;
      case CollOp::allreduce:
        c.allreduce(buf.data(), out.data(), kCount, Datatype::int64(),
                    Op::sum());
        break;
      case CollOp::ibarrier:
        return c.ibarrier().wait().error;
      case CollOp::ibcast:
        return c.ibcast(buf.data(), kCount, Datatype::int64(), 0).wait().error;
      case CollOp::iallreduce:
        return c
            .iallreduce(buf.data(), out.data(), kCount, Datatype::int64(),
                        Op::sum())
            .wait()
            .error;
    }
  } catch (const Error& e) {
    return e.error_class();
  }
  return ErrClass::success;
}

class CollFailure : public ::testing::TestWithParam<FailCase> {};

TEST_P(CollFailure, SurvivorsAbortThenRecover) {
  const FailCase fc = GetParam();
  ASSERT_TRUE(obs::cvar_write("coll.algorithm", fc.algo));
  testing::mpi_run(2, 4, [&](sim::Process& p) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "coll-failure", Info::null(),
        Errhandler::errors_return());
    comm.barrier();
    if (p.rank() == fc.victim) {
      std::this_thread::sleep_for(50ms);  // dies while survivors are inside
      p.fail();
      return;
    }
    // A survivor whose part of an attempt never touched the victim can
    // succeed; it repeats until the failure — or the revoke of a survivor
    // that saw it — reaches it.
    ErrClass got = ErrClass::success;
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (got == ErrClass::success &&
           std::chrono::steady_clock::now() < deadline) {
      got = attempt(comm, fc.op);
    }
    EXPECT_TRUE(got == ErrClass::rte_proc_failed ||
                got == ErrClass::comm_revoked)
        << "rank " << p.rank() << " ended with " << err_class_name(got);

    comm.revoke();
    Communicator small = comm.shrink();
    EXPECT_EQ(small.size(), 7);
    std::int64_t one = 1;
    std::int64_t sum = 0;
    small.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 7);
    small.free();
    comm.free();
    s.finalize();
  });
  obs::cvar_write("coll.algorithm", "auto");
}

std::vector<FailCase> all_cases() {
  std::vector<FailCase> cases;
  for (CollOp op : {CollOp::barrier, CollOp::bcast, CollOp::allreduce,
                    CollOp::ibarrier, CollOp::ibcast, CollOp::iallreduce}) {
    for (const char* algo : {"auto", "flat"}) {
      for (int victim : {4, 5}) {
        cases.push_back({op, algo, victim});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, CollFailure, ::testing::ValuesIn(all_cases()),
                         [](const auto& info) {
                           return std::string(op_name(info.param.op)) + "_" +
                                  info.param.algo +
                                  (info.param.victim == 4 ? "_leader"
                                                          : "_member");
                         });

// A pending nonblocking collective that waits on on-node shared state must
// not keep a blocking receive from noticing that its sender died: the idle
// progress pass still sweeps for dead peers when it may not park.
TEST(CollFailureSweep, BlockingRecvBesidePendingIbcastSeesDeadPeer) {
  testing::world_run(2, 4, [](sim::Process& p) {
    Communicator world = comm_world();
    world.set_errhandler(Errhandler::errors_return());
    if (p.rank() == 4) {
      std::this_thread::sleep_for(50ms);  // dies while rank 1 receives
      p.fail();
      return;
    }
    if (p.rank() != 1) {
      return;
    }
    // Rank 0, this node's head and the root, never joins: the ibcast waits
    // on its slot for as long as the receive runs.
    std::int64_t v = 0;
    Request pending = world.ibcast(&v, 1, Datatype::int64(), 0);
    std::int64_t x = 0;
    try {
      world.recv(&x, 1, Datatype::int64(), 4, 0);
      ADD_FAILURE() << "receive from a dead rank returned";
    } catch (const Error& e) {
      EXPECT_EQ(e.error_class(), ErrClass::rte_proc_failed);
    }
    world.revoke();
    EXPECT_EQ(pending.wait().error, ErrClass::comm_revoked);
  });
}

}  // namespace
}  // namespace sessmpi
