#include "sessmpi/win.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "harness.hpp"

namespace sessmpi {
namespace {

using testing::mpi_run;
using testing::world_run;

TEST(Win, PutVisibleAfterFence) {
  world_run(1, 2, [](sim::Process& p) {
    std::vector<std::int64_t> window(4, 0);
    Win win = Win::create(window.data(), window.size() * 8, comm_world());
    if (p.rank() == 0) {
      const std::int64_t v[2] = {11, 22};
      win.put(v, 2, Datatype::int64(), 1, 8);  // into slots 1..2 of rank 1
    }
    win.fence();
    if (p.rank() == 1) {
      EXPECT_EQ(window[0], 0);
      EXPECT_EQ(window[1], 11);
      EXPECT_EQ(window[2], 22);
    }
    win.free();
  });
}

TEST(Win, GetCompletesAtFence) {
  world_run(1, 2, [](sim::Process& p) {
    std::vector<double> window(3, 0);
    if (p.rank() == 1) {
      window = {1.5, 2.5, 3.5};
    }
    Win win = Win::create(window.data(), window.size() * 8, comm_world());
    double got[3] = {0, 0, 0};
    if (p.rank() == 0) {
      win.get(got, 3, Datatype::float64(), 1, 0);
    }
    win.fence();
    if (p.rank() == 0) {
      EXPECT_DOUBLE_EQ(got[0], 1.5);
      EXPECT_DOUBLE_EQ(got[2], 3.5);
    }
    win.free();
  });
}

TEST(Win, AccumulateSumsContributions) {
  world_run(1, 4, [](sim::Process& p) {
    std::int64_t cell = 0;
    Win win = Win::create(&cell, 8, comm_world());
    // Everyone accumulates its rank+1 into rank 0's cell.
    const std::int64_t mine = p.rank() + 1;
    win.accumulate(&mine, 1, Datatype::int64(), Op::sum(), 0, 0);
    win.fence();
    if (p.rank() == 0) {
      EXPECT_EQ(cell, 1 + 2 + 3 + 4);
    }
    win.free();
  });
}

TEST(Win, MultipleEpochsAreOrdered) {
  world_run(1, 2, [](sim::Process& p) {
    std::int64_t cell = 0;
    Win win = Win::create(&cell, 8, comm_world());
    for (std::int64_t epoch = 1; epoch <= 3; ++epoch) {
      if (p.rank() == 0) {
        win.put(&epoch, 1, Datatype::int64(), 1, 0);
      }
      win.fence();
      if (p.rank() == 1) {
        EXPECT_EQ(cell, epoch);
      }
      win.fence();  // exposure epoch for the check above
    }
    win.free();
  });
}

TEST(Win, CreateFromGroupViaIntermediateComm) {
  // The paper's §III-B6 path: sessions group -> intermediate communicator
  // -> MPI-3 creation -> intermediate freed. The window must stay usable.
  mpi_run(2, 2, [](sim::Process& p) {
    Session s = Session::init();
    std::vector<std::int32_t> window(8, -1);
    Win win = Win::create_from_group(s.group_from_pset("mpi://world"),
                                     "wintest", window.data(),
                                     window.size() * 4);
    EXPECT_EQ(win.size(), 4);
    EXPECT_EQ(win.rank(), p.rank());
    // Ring of puts: rank r writes its rank into slot r of its right
    // neighbor's window.
    const std::int32_t me = win.rank();
    win.put(&me, 1, Datatype::int32(), (me + 1) % 4,
            static_cast<std::size_t>(me) * 4);
    win.fence();
    const int left = (me + 3) % 4;
    EXPECT_EQ(window[static_cast<std::size_t>(left)], left);
    win.free();
    s.finalize();
  });
}

TEST(Win, WindowSizesMayDifferPerRank) {
  world_run(1, 2, [](sim::Process& p) {
    std::vector<std::byte> window(p.rank() == 0 ? 16 : 64);
    Win win = Win::create(window.data(), window.size(), comm_world());
    EXPECT_EQ(win.size_of(0), 16u);
    EXPECT_EQ(win.size_of(1), 64u);
    win.fence();
    win.free();
  });
}

TEST(Win, OutOfBoundsAccessThrows) {
  world_run(1, 2, [](sim::Process&) {
    std::vector<std::byte> window(16);
    Win win = Win::create(window.data(), window.size(), comm_world());
    std::int64_t v = 0;
    EXPECT_THROW(win.put(&v, 1, Datatype::int64(), 1, 9), Error);
    EXPECT_THROW(win.get(&v, 1, Datatype::int64(), 1, 16), Error);
    EXPECT_THROW((void)win.size_of(5), Error);
    win.fence();
    win.free();
  });
}

TEST(Win, AccumulateRejectsUserOpsAndDerivedTypes) {
  world_run(1, 1, [](sim::Process&) {
    std::int64_t cell = 0;
    Win win = Win::create(&cell, 8, comm_self());
    const std::int64_t v = 1;
    Op user = Op::create([](const void*, void*, int, const Datatype&) {});
    EXPECT_THROW(win.accumulate(&v, 1, Datatype::int64(), user, 0, 0), Error);
    Datatype derived = Datatype::contiguous(1, Datatype::int64());
    EXPECT_THROW(win.accumulate(&v, 1, derived, Op::sum(), 0, 0), Error);
    win.fence();
    win.free();
  });
}

TEST(Win, LargeRendezvousPut) {
  world_run(1, 2, [](sim::Process& p) {
    const std::size_t n = kEagerLimit * 3;
    std::vector<std::byte> window(n, std::byte{0});
    Win win = Win::create(window.data(), window.size(), comm_world());
    if (p.rank() == 0) {
      std::vector<std::byte> data(n, std::byte{0x5A});
      win.put(data.data(), static_cast<int>(n), Datatype::byte(), 1, 0);
    }
    win.fence();
    if (p.rank() == 1) {
      EXPECT_EQ(window[n - 1], std::byte{0x5A});
    }
    win.free();
  });
}

}  // namespace
}  // namespace sessmpi
