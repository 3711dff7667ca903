#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "harness.hpp"
#include "sessmpi/base/clock.hpp"

namespace sessmpi {
namespace {

using testing::world_run;

TEST(Pt2Pt, BasicSendRecv) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      const std::int32_t v = 42;
      world.send(&v, 1, Datatype::int32(), 1, 7);
    } else {
      std::int32_t v = 0;
      Status st = world.recv(&v, 1, Datatype::int32(), 0, 7);
      EXPECT_EQ(v, 42);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count(Datatype::int32()), 1);
    }
  });
}

TEST(Pt2Pt, InterNodeSendRecv) {
  world_run(2, 1, [](sim::Process& p) {
    Communicator world = comm_world();
    std::vector<double> data(100);
    if (p.rank() == 0) {
      std::iota(data.begin(), data.end(), 0.5);
      world.send(data.data(), 100, Datatype::float64(), 1, 0);
    } else {
      world.recv(data.data(), 100, Datatype::float64(), 0, 0);
      EXPECT_DOUBLE_EQ(data[0], 0.5);
      EXPECT_DOUBLE_EQ(data[99], 99.5);
    }
  });
}

TEST(Pt2Pt, MessageOrderingPreservedPerPair) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    constexpr int kN = 200;
    if (p.rank() == 0) {
      for (std::int32_t i = 0; i < kN; ++i) {
        world.send(&i, 1, Datatype::int32(), 1, 3);
      }
    } else {
      for (std::int32_t i = 0; i < kN; ++i) {
        std::int32_t v = -1;
        world.recv(&v, 1, Datatype::int32(), 0, 3);
        EXPECT_EQ(v, i) << "non-overtaking violated";
      }
    }
  });
}

TEST(Pt2Pt, TagSelectivity) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      const std::int32_t a = 1, b = 2;
      world.send(&a, 1, Datatype::int32(), 1, 10);
      world.send(&b, 1, Datatype::int32(), 1, 20);
    } else {
      std::int32_t v = 0;
      // Receive the later-tagged message first.
      world.recv(&v, 1, Datatype::int32(), 0, 20);
      EXPECT_EQ(v, 2);
      world.recv(&v, 1, Datatype::int32(), 0, 10);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(Pt2Pt, AnySourceAndAnyTag) {
  world_run(1, 4, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() != 0) {
      const std::int32_t v = p.rank();
      world.send(&v, 1, Datatype::int32(), 0, p.rank() * 100);
    } else {
      int sum = 0;
      for (int i = 0; i < 3; ++i) {
        std::int32_t v = 0;
        Status st = world.recv(&v, 1, Datatype::int32(), any_source, any_tag);
        EXPECT_EQ(st.source, v);
        EXPECT_EQ(st.tag, v * 100);
        sum += v;
      }
      EXPECT_EQ(sum, 1 + 2 + 3);
    }
  });
}

TEST(Pt2Pt, LargeMessageUsesRendezvous) {
  world_run(2, 1, [](sim::Process& p) {
    Communicator world = comm_world();
    const int n = static_cast<int>(kEagerLimit) * 4;  // well past eager limit
    std::vector<std::byte> data(static_cast<std::size_t>(n));
    if (p.rank() == 0) {
      for (int i = 0; i < n; ++i) {
        data[static_cast<std::size_t>(i)] = static_cast<std::byte>(i & 0xff);
      }
      world.send(data.data(), n, Datatype::byte(), 1, 0);
    } else {
      Status st = world.recv(data.data(), n, Datatype::byte(), 0, 0);
      EXPECT_EQ(st.count_bytes, static_cast<std::size_t>(n));
      EXPECT_EQ(data[12345], static_cast<std::byte>(12345 & 0xff));
    }
  });
}

TEST(Pt2Pt, RendezvousUnexpectedThenPosted) {
  // RTS arrives before the receive is posted; matching must still work.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    const int n = static_cast<int>(kEagerLimit) * 2;
    if (p.rank() == 0) {
      std::vector<std::byte> data(static_cast<std::size_t>(n),
                                  std::byte{0xAB});
      world.send(data.data(), n, Datatype::byte(), 1, 0);
    } else {
      // Give the RTS time to land in the unexpected queue.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::vector<std::byte> data(static_cast<std::size_t>(n));
      world.recv(data.data(), n, Datatype::byte(), 0, 0);
      EXPECT_EQ(data[100], std::byte{0xAB});
    }
  });
}

TEST(Pt2Pt, SsendCompletesOnlyAfterMatch) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      const std::int32_t v = 5;
      base::Stopwatch sw;
      world.ssend(&v, 1, Datatype::int32(), 1, 0);
      // Receiver posts after 50ms, so the synchronous send must block at
      // least roughly that long.
      EXPECT_GT(sw.elapsed_ms(), 30.0);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::int32_t v = 0;
      world.recv(&v, 1, Datatype::int32(), 0, 0);
      EXPECT_EQ(v, 5);
    }
  });
}

TEST(Pt2Pt, IsendIrecvWaitall) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    constexpr int kN = 16;
    std::vector<std::int32_t> out(kN), in(kN);
    std::vector<Request> reqs;
    if (p.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        out[static_cast<std::size_t>(i)] = i * i;
        reqs.push_back(world.isend(&out[static_cast<std::size_t>(i)], 1,
                                   Datatype::int32(), 1, i));
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(world.irecv(&in[static_cast<std::size_t>(i)], 1,
                                   Datatype::int32(), 0, i));
      }
    }
    Request::wait_all(reqs);
    if (p.rank() == 1) {
      for (int i = 0; i < kN; ++i) {
        EXPECT_EQ(in[static_cast<std::size_t>(i)], i * i);
      }
    }
  });
}

TEST(Pt2Pt, SendrecvExchanges) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    const std::int32_t mine = p.rank() * 10;
    std::int32_t theirs = -1;
    const int other = 1 - p.rank();
    world.sendrecv(&mine, 1, Datatype::int32(), other, 0, &theirs, 1,
                   Datatype::int32(), other, 0);
    EXPECT_EQ(theirs, other * 10);
  });
}

TEST(Pt2Pt, TruncationReportsError) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    world.set_errhandler(Errhandler::errors_return());
    if (p.rank() == 0) {
      std::int32_t big[4] = {1, 2, 3, 4};
      world.send(big, 4, Datatype::int32(), 1, 0);
    } else {
      std::int32_t small[2] = {0, 0};
      EXPECT_THROW(world.recv(small, 2, Datatype::int32(), 0, 0), Error);
      EXPECT_EQ(small[0], 1);  // what fit was delivered
      EXPECT_EQ(small[1], 2);
    }
  });
}

TEST(Pt2Pt, ProbeSeesPendingMessage) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      std::int32_t v[3] = {7, 8, 9};
      world.send(v, 3, Datatype::int32(), 1, 42);
    } else {
      Status st = world.probe(any_source, any_tag);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 42);
      EXPECT_EQ(st.count(Datatype::int32()), 3);
      std::int32_t v[3];
      world.recv(v, st.count(Datatype::int32()), Datatype::int32(), st.source,
                 st.tag);
      EXPECT_EQ(v[2], 9);
    }
  });
}

TEST(Pt2Pt, IprobeNonBlocking) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    if (p.rank() == 0) {
      EXPECT_FALSE(world.iprobe(1, 0));  // nothing sent to us
      world.barrier();
      const std::int32_t v = 1;
      world.send(&v, 1, Datatype::int32(), 1, 0);
    } else {
      world.barrier();
      Status st;
      while (!world.iprobe(0, 0, &st)) {
      }
      EXPECT_EQ(st.source, 0);
      std::int32_t v = 0;
      world.recv(&v, 1, Datatype::int32(), 0, 0);
    }
  });
}

TEST(Pt2Pt, NegativeUserTagRejected) {
  world_run(1, 1, [](sim::Process&) {
    Communicator self = comm_self();
    self.set_errhandler(Errhandler::errors_return());
    const std::int32_t v = 0;
    EXPECT_THROW(self.send(&v, 1, Datatype::int32(), 0, -5), Error);
  });
}

TEST(Pt2Pt, SelfCommunication) {
  world_run(1, 1, [](sim::Process&) {
    Communicator self = comm_self();
    const std::int32_t out = 99;
    std::int32_t in = 0;
    Request r = self.irecv(&in, 1, Datatype::int32(), 0, 0);
    self.send(&out, 1, Datatype::int32(), 0, 0);
    r.wait();
    EXPECT_EQ(in, 99);
  });
}

struct ShapeParam {
  int nodes;
  int ppn;
};

class Pt2PtShapes : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(Pt2PtShapes, RingPassesTokenAroundWorld) {
  const auto [nodes, ppn] = GetParam();
  world_run(nodes, ppn, [](sim::Process&) {
    Communicator world = comm_world();
    const int n = world.size();
    const int me = world.rank();
    std::int64_t token = 0;
    if (me == 0) {
      token = 1;
      world.send(&token, 1, Datatype::int64(), 1 % n, 0);
      world.recv(&token, 1, Datatype::int64(), (n - 1) % n, 0);
      EXPECT_EQ(token, n);
    } else {
      world.recv(&token, 1, Datatype::int64(), me - 1, 0);
      ++token;
      world.send(&token, 1, Datatype::int64(), (me + 1) % n, 0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, Pt2PtShapes,
                         ::testing::Values(ShapeParam{1, 2}, ShapeParam{1, 8},
                                           ShapeParam{2, 2}, ShapeParam{4, 1},
                                           ShapeParam{2, 6}));

}  // namespace
}  // namespace sessmpi
