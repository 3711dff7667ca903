// Tests for the hierarchical collective engine (src/coll): flat/hier
// result equivalence on the world and on irregular communicators, plan
// accessors against a by-node reference, non-commutative determinism
// across algorithm variants, MPI_IN_PLACE and zero-count edge cases,
// single-copy on-node accounting, plan-cache reuse and revoke/shrink invalidation, and
// concurrent collectives on disjoint communicators (the TSan witness for
// the shared-region release protocol).
//
// The "coll.algorithm" cvar is process-global, so tests that compare
// algorithms run one cluster per setting instead of flipping the knob
// while ranks are mid-collective (selection must branch identically on
// every rank of one operation).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "detail/state.hpp"
#include "../base/member_shapes.hpp"
#include "harness.hpp"
#include "sessmpi/coll/plan.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi {
namespace {

using namespace std::chrono_literals;
using testing::mpi_run;
using testing::world_run;

/// RAII force of the global algorithm knob; restores "auto" on scope exit.
struct AlgoGuard {
  explicit AlgoGuard(const char* algo) {
    EXPECT_TRUE(obs::cvar_write("coll.algorithm", algo));
  }
  ~AlgoGuard() { obs::cvar_write("coll.algorithm", "auto"); }
};

/// Digit-concatenation fold: inout = inout * 10 + in. Deliberately
/// non-associative-looking under reordering: any regrouping or rank
/// permutation of the fold changes the value, so a strict rank-ordered
/// reduction over ranks contributing (rank + 1) must yield 123...n.
Op digits_op() {
  return Op::create(
      [](const void* in, void* inout, int count, const Datatype&) {
        const auto* a = static_cast<const std::int64_t*>(in);
        auto* b = static_cast<std::int64_t*>(inout);
        for (int i = 0; i < count; ++i) {
          b[i] = b[i] * 10 + a[i];
        }
      },
      /*commute=*/false, "digits");
}

std::int64_t digits_expected(int n) {
  std::int64_t v = 0;
  for (int r = 0; r < n; ++r) {
    v = v * 10 + (r + 1);
  }
  return v;
}

struct ShapeParam {
  int nodes;
  int ppn;
};

class CollShapes : public ::testing::TestWithParam<ShapeParam> {
 protected:
  [[nodiscard]] int nodes() const { return GetParam().nodes; }
  [[nodiscard]] int ppn() const { return GetParam().ppn; }
};

// ---------------------------------------------------------------------------
// Flat and hierarchical paths must agree bit-for-bit on every collective.

struct SweepResult {
  std::vector<std::int64_t> bcast, reduce, allreduce, gather, scatter,
      allgather, alltoall, scan, exscan;
};

/// Runs every collective once on the world communicator, or with `make` on
/// the communicator it derives from the world (freed afterwards).
SweepResult run_sweep(int nodes, int ppn,
                      const std::function<Communicator()>& make = nullptr) {
  SweepResult out;
  std::mutex mu;
  world_run(nodes, ppn, [&](sim::Process&) {
    Communicator w = make ? make() : comm_world();
    const int n = w.size();
    const int me = w.rank();

    std::vector<std::int64_t> b(64, me == 1 % n ? 7 : -1);
    if (me == 1 % n) {
      std::iota(b.begin(), b.end(), 100);
    }
    w.bcast(b.data(), 64, Datatype::int64(), 1 % n);

    std::int64_t mine = me + 1;
    std::int64_t red = -1;
    w.reduce(&mine, &red, 1, Datatype::int64(), digits_op(), n - 1);

    std::int64_t ar = 0;
    w.allreduce(&mine, &ar, 1, Datatype::int64(), digits_op());

    std::vector<std::int64_t> g(static_cast<std::size_t>(n) * 2, -1);
    const std::int64_t gsrc[2] = {me * 2, me * 2 + 1};
    w.gather(gsrc, 2, Datatype::int64(), g.data(), 2, Datatype::int64(), 0);

    std::vector<std::int64_t> sc;
    if (me == 0) {
      sc.resize(static_cast<std::size_t>(n) * 2);
      std::iota(sc.begin(), sc.end(), 1000);
    }
    std::int64_t srecv[2] = {-1, -1};
    w.scatter(sc.data(), 2, Datatype::int64(), srecv, 2, Datatype::int64(),
              0);

    std::vector<std::int64_t> ag(static_cast<std::size_t>(n), -1);
    w.allgather(&mine, 1, Datatype::int64(), ag.data(), 1, Datatype::int64());

    std::vector<std::int64_t> a2asrc(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      a2asrc[static_cast<std::size_t>(i)] = me * 100 + i;
    }
    std::vector<std::int64_t> a2a(static_cast<std::size_t>(n), -1);
    w.alltoall(a2asrc.data(), 1, Datatype::int64(), a2a.data(), 1,
               Datatype::int64());

    std::int64_t scn = -1;
    w.scan(&mine, &scn, 1, Datatype::int64(), digits_op());
    std::int64_t exs = -1;
    w.exscan(&mine, &exs, 1, Datatype::int64(), digits_op());
    if (make) {
      w.free();
    }

    std::lock_guard lock(mu);
    out.bcast.insert(out.bcast.end(), b.begin(), b.end());
    out.reduce.push_back(red);
    out.allreduce.push_back(ar);
    out.gather.insert(out.gather.end(), g.begin(), g.end());
    out.scatter.push_back(srecv[0]);
    out.scatter.push_back(srecv[1]);
    out.allgather.insert(out.allgather.end(), ag.begin(), ag.end());
    out.alltoall.insert(out.alltoall.end(), a2a.begin(), a2a.end());
    out.scan.push_back(scn);
    out.exscan.push_back(me == 0 ? 0 : exs);
  });
  // Rank completion order is nondeterministic; canonicalize.
  auto sort_all = [](SweepResult& r) {
    for (auto* v : {&r.bcast, &r.reduce, &r.allreduce, &r.gather, &r.scatter,
                    &r.allgather, &r.alltoall, &r.scan, &r.exscan}) {
      std::sort(v->begin(), v->end());
    }
  };
  sort_all(out);
  return out;
}

void expect_same(const SweepResult& flat, const SweepResult& hier) {
  EXPECT_EQ(flat.bcast, hier.bcast);
  EXPECT_EQ(flat.reduce, hier.reduce);
  EXPECT_EQ(flat.allreduce, hier.allreduce);
  EXPECT_EQ(flat.gather, hier.gather);
  EXPECT_EQ(flat.scatter, hier.scatter);
  EXPECT_EQ(flat.allgather, hier.allgather);
  EXPECT_EQ(flat.alltoall, hier.alltoall);
  EXPECT_EQ(flat.scan, hier.scan);
  EXPECT_EQ(flat.exscan, hier.exscan);
}

TEST_P(CollShapes, HierMatchesFlatBitForBit) {
  SweepResult flat, hier;
  {
    AlgoGuard g{"flat"};
    flat = run_sweep(nodes(), ppn());
  }
  {
    AlgoGuard g{"auto"};
    hier = run_sweep(nodes(), ppn());
  }
  expect_same(flat, hier);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CollShapes,
                         ::testing::Values(ShapeParam{1, 1}, ShapeParam{1, 6},
                                           ShapeParam{6, 1}, ShapeParam{2, 4},
                                           ShapeParam{3, 3}),
                         [](const auto& info) {
                           return std::to_string(info.param.nodes) + "x" +
                                  std::to_string(info.param.ppn);
                         });

// ---------------------------------------------------------------------------
// The same sweep on communicators whose nodes are not one ascending run of
// comm ranks: strided (the even and the odd ranks), reversed (nodes in
// descending order), and node-interleaved (every node's ranks strided), so
// the rooted gather/scatter pack and unpack and the alltoall ladder run on
// plans laid out by binary search over the runs.

enum class Irregular { even_odd, reversed, interleaved };

struct IrregularParam {
  int nodes;
  int ppn;
  Irregular kind;
};

std::string irregular_name(Irregular kind) {
  switch (kind) {
    case Irregular::even_odd: return "even_odd";
    case Irregular::reversed: return "reversed";
    case Irregular::interleaved: return "interleaved";
  }
  return "?";
}

class CollIrregular : public ::testing::TestWithParam<IrregularParam> {};

Communicator make_irregular(const IrregularParam& prm) {
  Communicator w = comm_world();
  switch (prm.kind) {
    case Irregular::even_odd:
      return w.split(w.rank() % 2, w.rank());
    case Irregular::reversed:
      return w.split(0, -w.rank());
    case Irregular::interleaved:
      break;
  }
  std::vector<int> order;
  for (int slot = 0; slot < prm.ppn; ++slot) {
    for (int node = 0; node < prm.nodes; ++node) {
      order.push_back(node * prm.ppn + slot);
    }
  }
  return w.create_group(w.group().incl(order), 9);
}

TEST_P(CollIrregular, HierMatchesFlatBitForBit) {
  const IrregularParam prm = GetParam();
  const auto make = [prm] { return make_irregular(prm); };
  SweepResult flat, hier;
  {
    AlgoGuard g{"flat"};
    flat = run_sweep(prm.nodes, prm.ppn, make);
  }
  {
    AlgoGuard g{"auto"};
    hier = run_sweep(prm.nodes, prm.ppn, make);
  }
  expect_same(flat, hier);
}

INSTANTIATE_TEST_SUITE_P(
    Comms, CollIrregular,
    ::testing::Values(IrregularParam{2, 4, Irregular::even_odd},
                      IrregularParam{2, 4, Irregular::reversed},
                      IrregularParam{2, 4, Irregular::interleaved},
                      IrregularParam{3, 3, Irregular::even_odd},
                      IrregularParam{3, 3, Irregular::reversed},
                      IrregularParam{3, 3, Irregular::interleaved}),
    [](const auto& info) {
      return std::to_string(info.param.nodes) + "x" +
             std::to_string(info.param.ppn) + "_" +
             irregular_name(info.param.kind);
    });

// ---------------------------------------------------------------------------
// Plan accessors: over seeded member lists of every shape, on one and two
// sockets per node, the topology plan's node/slot lookups, leaders, member
// lists and socket grouping match the by-node map the plan builder used to
// keep on every rank.

void expect_plan_matches(const coll::Plan& plan,
                         const std::vector<base::Rank>& members,
                         const base::Topology& topo) {
  const auto ref = testing::by_node(members, topo);
  ASSERT_EQ(plan.nodes(), static_cast<int>(ref.size()));
  int idx = 0;
  for (const auto& [id, ranks] : ref) {
    EXPECT_EQ(plan.leaders[static_cast<std::size_t>(idx)], ranks.front());
    EXPECT_EQ(plan.node_size(idx), static_cast<int>(ranks.size()));
    EXPECT_EQ(plan.contiguous(idx),
              ranks.back() - ranks.front() + 1 ==
                  static_cast<int>(ranks.size()));
    EXPECT_EQ(plan.members_of(idx), ranks);
    for (std::size_t slot = 0; slot < ranks.size(); ++slot) {
      EXPECT_EQ(plan.node_of(ranks[slot]), idx);
      EXPECT_EQ(plan.slot_of(ranks[slot]), static_cast<int>(slot));
      if (ranks[slot] == plan.myrank) {
        EXPECT_EQ(plan.my_node, idx);
        EXPECT_EQ(plan.my_slot, static_cast<int>(slot));
        EXPECT_EQ(plan.my_members, ranks);
        EXPECT_EQ(plan.on_node, static_cast<int>(ranks.size()));
        EXPECT_EQ(plan.i_am_leader, slot == 0);
        std::map<int, std::vector<int>> by_socket;
        std::vector<base::Rank> globals;
        for (int m : ranks) {
          const base::Rank g = members[static_cast<std::size_t>(m)];
          by_socket[topo.socket_of(g)].push_back(m);
          globals.push_back(g);
        }
        std::vector<std::vector<int>> sockets;
        for (auto& [sock, ms] : by_socket) {
          sockets.push_back(ms);
        }
        EXPECT_EQ(plan.my_sockets, sockets);
        EXPECT_EQ(plan.my_node_globals, globals);
      }
    }
    ++idx;
  }
}

TEST(CollPlan, AccessorsMatchByNodeReference) {
  for (const base::Topology topo :
       {base::Topology{3, 4, 2}, base::Topology{4, 3, 1}}) {
    for (testing::Shape shape : testing::all_shapes()) {
      SCOPED_TRACE(testing::shape_name(shape) + " on " +
                   std::to_string(topo.num_nodes) + "x" +
                   std::to_string(topo.procs_per_node));
      std::mt19937 rng(static_cast<unsigned>(shape) + 11);
      const std::vector<base::Rank> members =
          testing::member_list(shape, topo, rng);
      sim::Cluster::Options opts =
          testing::zero_opts(topo.num_nodes, topo.procs_per_node);
      opts.topo.sockets_per_node = topo.sockets_per_node;
      sim::Cluster cluster{opts};
      cluster.run([&](sim::Process& p) {
        init();
        Communicator w = comm_world();
        if (std::ranges::find(members, p.rank()) != members.end()) {
          Communicator c = w.create_group(w.group().incl(members), 5);
          c.barrier();
          const auto plan = std::static_pointer_cast<const coll::Plan>(
              detail_unwrap(c)->coll_plan);
          ASSERT_NE(plan, nullptr);
          expect_plan_matches(*plan, members, topo);
          c.free();
        }
        finalize();
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Non-commutative reductions must fold in strict rank order on every
// algorithm variant, including the nonblocking chain schedule.

TEST(CollEngine, NonCommutativeDeterministicAcrossVariants) {
  for (const char* algo : {"flat", "auto"}) {
    AlgoGuard g{algo};
    for (ShapeParam sh : {ShapeParam{1, 4}, ShapeParam{2, 4}, ShapeParam{4, 2}}) {
      world_run(sh.nodes, sh.ppn, [&](sim::Process&) {
        Communicator w = comm_world();
        const int n = w.size();
        const std::int64_t expect = digits_expected(n);
        const std::int64_t mine = w.rank() + 1;

        std::int64_t ar = -1;
        w.allreduce(&mine, &ar, 1, Datatype::int64(), digits_op());
        EXPECT_EQ(ar, expect) << "allreduce algo=" << algo;

        for (int root = 0; root < n; ++root) {
          std::int64_t red = -1;
          w.reduce(&mine, &red, 1, Datatype::int64(), digits_op(), root);
          if (w.rank() == root) {
            EXPECT_EQ(red, expect) << "reduce algo=" << algo;
          }
        }

        std::int64_t iar = -1;
        w.iallreduce(&mine, &iar, 1, Datatype::int64(), digits_op()).wait();
        EXPECT_EQ(iar, expect) << "iallreduce algo=" << algo;
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Zero counts and MPI_IN_PLACE behave identically on both paths.

TEST(CollEngine, ZeroCountAndInPlaceUnderBothAlgorithms) {
  for (const char* algo : {"flat", "auto"}) {
    AlgoGuard g{algo};
    world_run(2, 4, [&](sim::Process&) {
      Communicator w = comm_world();
      const int n = w.size();
      const int me = w.rank();

      // Zero-count collectives complete and touch nothing.
      std::int64_t sentinel = 0x5151;
      w.bcast(&sentinel, 0, Datatype::int64(), 0);
      w.gather(nullptr, 0, Datatype::int64(), nullptr, 0, Datatype::int64(),
               0);
      w.scatter(nullptr, 0, Datatype::int64(), nullptr, 0, Datatype::int64(),
                0);
      std::int64_t z0 = 0;
      w.allreduce(&z0, &z0, 0, Datatype::int64(), Op::sum());
      EXPECT_EQ(sentinel, 0x5151);

      // IN_PLACE gather: root's contribution already sits in its slot of
      // recvbuf and must survive untouched.
      std::vector<std::int64_t> g(static_cast<std::size_t>(n), -1);
      const std::int64_t mine = 40 + me;
      if (me == 0) {
        g[0] = 40;
        w.gather(in_place, 1, Datatype::int64(), g.data(), 1,
                 Datatype::int64(), 0);
        for (int i = 0; i < n; ++i) {
          EXPECT_EQ(g[static_cast<std::size_t>(i)], 40 + i) << "algo=" << algo;
        }
      } else {
        w.gather(&mine, 1, Datatype::int64(), nullptr, 0, Datatype::int64(),
                 0);
      }

      // IN_PLACE scatter: root's slice stays in sendbuf.
      std::vector<std::int64_t> sc;
      if (me == 0) {
        sc.resize(static_cast<std::size_t>(n));
        std::iota(sc.begin(), sc.end(), 900);
      }
      std::int64_t got = me == 0 ? -1 : 0;
      if (me == 0) {
        w.scatter(sc.data(), 1, Datatype::int64(), const_cast<void*>(in_place),
                  1, Datatype::int64(), 0);
        EXPECT_EQ(sc[0], 900);
      } else {
        w.scatter(nullptr, 0, Datatype::int64(), &got, 1, Datatype::int64(),
                  0);
        EXPECT_EQ(got, 900 + me) << "algo=" << algo;
      }

      // IN_PLACE allreduce and allgather.
      std::int64_t acc = me + 1;
      w.allreduce(in_place, &acc, 1, Datatype::int64(), digits_op());
      EXPECT_EQ(acc, digits_expected(n)) << "algo=" << algo;

      std::vector<std::int64_t> ag(static_cast<std::size_t>(n), -1);
      ag[static_cast<std::size_t>(me)] = 70 + me;
      w.allgather(in_place, 1, Datatype::int64(), ag.data(), 1,
                  Datatype::int64());
      for (int i = 0; i < n; ++i) {
        EXPECT_EQ(ag[static_cast<std::size_t>(i)], 70 + i) << "algo=" << algo;
      }
    });
  }
}

TEST(CollEngine, InPlaceOnNonRootRaisesBufferError) {
  mpi_run(1, 2, [](sim::Process& p) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "coll-inplace", Info::null(),
        Errhandler::errors_return());
    std::int64_t buf[2] = {0, 0};
    if (p.rank() == 1) {
      try {
        comm.gather(in_place, 1, Datatype::int64(), nullptr, 0,
                    Datatype::int64(), 0);
        ADD_FAILURE() << "IN_PLACE gather on non-root must raise";
      } catch (const Error& e) {
        EXPECT_EQ(e.error_class(), ErrClass::buffer);
      }
      // Participate normally so the root's gather completes.
      const std::int64_t one = 1;
      comm.gather(&one, 1, Datatype::int64(), nullptr, 0, Datatype::int64(),
                  0);
    } else {
      comm.gather(in_place, 1, Datatype::int64(), buf, 1, Datatype::int64(),
                  0);
    }
    comm.free();
    s.finalize();
  });
}

// ---------------------------------------------------------------------------
// Single-copy witness: on one node, hierarchical bcast/allreduce above the
// eager threshold must move payload exclusively through the shared region
// (coll.payload_copies counts same-node fabric sends with payload), and so
// must their nonblocking forms, which run the same schedules.

TEST(CollEngine, OnNodeHierarchicalCollectivesAreSingleCopy) {
  base::counters().reset();
  world_run(1, 8, [](sim::Process&) {
    Communicator w = comm_world();
    std::vector<std::int64_t> buf(1024);  // 8 KiB >= the 4 KiB floor
    if (w.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0);
    }
    w.bcast(buf.data(), 1024, Datatype::int64(), 0);
    EXPECT_EQ(buf[1023], 1023);

    std::vector<std::int64_t> acc(1024, 0);
    w.allreduce(buf.data(), acc.data(), 1024, Datatype::int64(), Op::sum());
    EXPECT_EQ(acc[1], 8);

    std::vector<std::int64_t> ibuf(1024, w.rank() == 0 ? 77 : -1);
    EXPECT_EQ(w.ibcast(ibuf.data(), 1024, Datatype::int64(), 0).wait().error,
              ErrClass::success);
    EXPECT_EQ(ibuf[1023], 77);
    std::vector<std::int64_t> iacc(1024, 0);
    EXPECT_EQ(w.iallreduce(buf.data(), iacc.data(), 1024, Datatype::int64(),
                           Op::sum())
                  .wait()
                  .error,
              ErrClass::success);
    EXPECT_EQ(iacc[1], 8);
    EXPECT_EQ(w.ibarrier().wait().error, ErrClass::success);
  });
  // A counter that was never bumped is also never registered, so an absent
  // pvar and a zero-valued one both mean "no copies happened".
  EXPECT_EQ(obs::pvar_read_counter("coll.payload_copies").value_or(0), 0u);
  EXPECT_GT(obs::pvar_read_counter("coll.shm_publishes").value_or(0), 0u);
  EXPECT_GT(obs::pvar_read_counter("coll.shm_bytes").value_or(0), 8u * 1024u);
  EXPECT_EQ(obs::pvar_read_counter("coll.wire_sends").value_or(0), 0u);
}

// ---------------------------------------------------------------------------
// Out-of-range roots raise ErrClass::root through the communicator's
// errhandler on every rooted collective, gatherv included.

TEST(CollEngine, OutOfRangeRootRaisesRootError) {
  mpi_run(1, 2, [](sim::Process&) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "coll-root", Info::null(),
        Errhandler::errors_return());
    std::int64_t mine = 1;
    std::vector<std::int64_t> all(2, 0);
    const std::vector<int> counts{1, 1};
    const std::vector<int> displs{0, 1};
    const auto expect_root_error = [](auto&& call) {
      try {
        call();
        ADD_FAILURE() << "an out-of-range root must raise";
      } catch (const Error& e) {
        EXPECT_EQ(e.error_class(), ErrClass::root);
      }
    };
    for (int root : {-1, 2}) {
      expect_root_error([&] {
        comm.gatherv(&mine, 1, Datatype::int64(), all.data(), counts, displs,
                     Datatype::int64(), root);
      });
      expect_root_error([&] {
        comm.gather(&mine, 1, Datatype::int64(), all.data(), 1,
                    Datatype::int64(), root);
      });
    }
    comm.barrier();
    comm.free();
    s.finalize();
  });
}

// ---------------------------------------------------------------------------
// Plan cache: built once per rank per communicator, reused across
// operations, dropped on revoke, rebuilt for the shrunk membership.

TEST(CollEngine, PlanCacheReuseAndShrinkInvalidation) {
  mpi_run(1, 4, [](sim::Process& p) {
    Session s = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "coll-shrink", Info::null(),
        Errhandler::errors_return());
    const auto& cs = detail_unwrap(comm);

    comm.barrier();
    EXPECT_NE(cs->coll_plan, nullptr);
    const void* first_plan = cs->coll_plan.get();
    comm.barrier();
    EXPECT_EQ(cs->coll_plan.get(), first_plan) << "plan must be reused";

    if (p.rank() == 3) {
      std::this_thread::sleep_for(20ms);
      p.fail();
      return;  // crashed: no finalize
    }
    EXPECT_THROW(comm.barrier(), Error);
    comm.revoke();
    EXPECT_TRUE(comm.is_revoked());
    // Revocation is the invalidation point: the cached plan is gone.
    EXPECT_EQ(cs->coll_plan, nullptr);

    Communicator small = comm.shrink();
    EXPECT_EQ(small.size(), 3);
    std::int64_t one = 1;
    std::int64_t sum = 0;
    small.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
    EXPECT_EQ(sum, 3);
    // The shrunk communicator built its own plan over the survivors only.
    // (Pointer identity against the old plan would be an ABA check — the
    // revoked plan's storage can be recycled — so witness the membership.)
    const auto splan =
        std::static_pointer_cast<const coll::Plan>(detail_unwrap(small)->coll_plan);
    ASSERT_NE(splan, nullptr);
    EXPECT_EQ(splan->nranks, 3);

    small.free();
    comm.free();
    s.finalize();
  });
}

// ---------------------------------------------------------------------------
// Disjoint communicators run collectives concurrently: the even and odd
// halves of the world hammer their own comm in lockstep. Run under TSan in
// CI, this is the data-race witness for the shared-region protocol (two
// regions, interleaved publishes from sibling threads on one node).

TEST(CollEngine, ConcurrentCollectivesOnDisjointComms) {
  world_run(2, 4, [](sim::Process&) {
    Communicator w = comm_world();
    Communicator half = w.split(w.rank() % 2, w.rank());
    const int n = half.size();
    const std::int64_t base = w.rank() % 2 ? 1000 : 1;
    for (int iter = 0; iter < 25; ++iter) {
      std::int64_t mine = base + iter;
      std::int64_t sum = 0;
      half.allreduce(&mine, &sum, 1, Datatype::int64(), Op::sum());
      EXPECT_EQ(sum, (base + iter) * n);
      std::vector<std::int64_t> buf(512, half.rank() == 0 ? base + iter : -1);
      half.bcast(buf.data(), 512, Datatype::int64(), 0);
      EXPECT_EQ(buf[511], base + iter);
    }
    half.barrier();
    half.free();
  });
}

// ---------------------------------------------------------------------------
// Nonblocking collectives: correctness across shapes, overlapping ops.

TEST(CollEngine, IbcastAndIallreduceAcrossShapes) {
  for (ShapeParam sh : {ShapeParam{1, 4}, ShapeParam{2, 4}, ShapeParam{4, 1}}) {
    world_run(sh.nodes, sh.ppn, [](sim::Process&) {
      Communicator w = comm_world();
      const int n = w.size();
      for (int root = 0; root < n; ++root) {
        std::vector<std::int32_t> buf(128, w.rank() == root ? root : -1);
        Request r = w.ibcast(buf.data(), 128, Datatype::int32(), root);
        EXPECT_EQ(r.wait().error, ErrClass::success);
        EXPECT_EQ(buf[0], root);
        EXPECT_EQ(buf[127], root);
      }
      // Two overlapping nonblocking collectives on one communicator:
      // sequence-keyed tags keep their wire traffic apart.
      const std::int64_t mine = w.rank() + 1;
      std::int64_t sum = 0;
      std::vector<std::int32_t> bb(64, w.rank() == 0 ? 42 : -1);
      Request ra = w.iallreduce(&mine, &sum, 1, Datatype::int64(), Op::sum());
      Request rb = w.ibcast(bb.data(), 64, Datatype::int32(), 0);
      EXPECT_EQ(rb.wait().error, ErrClass::success);
      EXPECT_EQ(ra.wait().error, ErrClass::success);
      EXPECT_EQ(sum, static_cast<std::int64_t>(n) * (n + 1) / 2);
      EXPECT_EQ(bb[63], 42);
    });
  }
}

}  // namespace
}  // namespace sessmpi
