// Tests pinning the exCID wire protocol details of paper §III-B4: which
// messages carry extended headers, when the ACK switches a peer to the
// fast path, and what happens to early arrivals for unknown exCIDs.

#include <gtest/gtest.h>

#include <thread>

#include "harness.hpp"

namespace sessmpi {
namespace {

using testing::mpi_run;
using testing::world_run;

TEST(WireProtocol, WorldModelNeverSendsExtendedHeaders) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    const int other = 1 - p.rank();
    for (int i = 0; i < 10; ++i) {
      std::int32_t v = i;
      if (p.rank() == 0) {
        world.send(&v, 1, Datatype::int32(), other, 1);
      } else {
        world.recv(&v, 1, Datatype::int32(), other, 1);
      }
    }
    EXPECT_FALSE(world.uses_excid());
  });
}

TEST(WireProtocol, BackToBackSendsAllCarryExtHeadersUntilProgress) {
  // The Fig. 5c mechanism: a sender that does not progress between sends
  // keeps attaching extended headers because the receiver's ACK has not
  // been processed yet.
  mpi_run(1, 2, [](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "burst");
    constexpr int kBurst = 10;
    if (p.rank() == 0) {
      std::vector<Request> reqs;
      std::int32_t v = 7;
      for (int i = 0; i < kBurst; ++i) {
        reqs.push_back(c.isend(&v, 1, Datatype::int32(), 1, 2));
      }
      // No progress happened between the isends: every one went out with
      // the extended header.
      // (ext_headers_sent is tracked per communicator.)
      Request::wait_all(reqs);
      // Handshake: receive the ACK-carrying reply path by ping-ponging.
      std::int32_t r = 0;
      c.recv(&r, 1, Datatype::int32(), 1, 3);
      // Now the fast path is available.
      c.send(&v, 1, Datatype::int32(), 1, 4);
      EXPECT_GE(c.handshaked_peers(), 1);
    } else {
      std::int32_t v = 0;
      for (int i = 0; i < kBurst; ++i) {
        c.recv(&v, 1, Datatype::int32(), 0, 2);
      }
      c.send(&v, 1, Datatype::int32(), 0, 3);
      c.recv(&v, 1, Datatype::int32(), 0, 4);
    }
    c.free();
    s.finalize();
  });
}

TEST(WireProtocol, SendrecvPresyncSwitchesToFastPath) {
  // The paper's fix for osu_mbw_mr: one Sendrecv fully handshakes a pair.
  mpi_run(1, 2, [](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "presync");
    const int other = 1 - p.rank();
    std::byte tok{};
    c.sendrecv(&tok, 1, Datatype::byte(), other, 9, &tok, 1, Datatype::byte(),
               other, 9);
    // Drive one more progress round so the final ACK lands everywhere.
    c.barrier();
    EXPECT_EQ(c.handshaked_peers(), 1);
    c.free();
    s.finalize();
  });
}

TEST(WireProtocol, EarlyArrivalsForUnknownExCidArePreserved) {
  // One rank races ahead: it finishes communicator construction and fires
  // a message while the peer has not registered the exCID locally yet. The
  // orphan queue must hold and replay it.
  mpi_run(1, 2, [](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "race");
    if (p.rank() == 0) {
      std::int32_t v = 31337;
      c.send(&v, 1, Datatype::int32(), 1, 0);
    } else {
      // Delay a bit so the message likely arrives before we even post.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      std::int32_t v = 0;
      c.recv(&v, 1, Datatype::int32(), 0, 0);
      EXPECT_EQ(v, 31337);
    }
    c.free();
    s.finalize();
  });
}

TEST(WireProtocol, RendezvousProbeSeesAdvertisedSize) {
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    const int n = static_cast<int>(kEagerLimit) * 2;
    if (p.rank() == 0) {
      std::vector<std::byte> big(static_cast<std::size_t>(n), std::byte{1});
      world.send(big.data(), n, Datatype::byte(), 1, 8);
    } else {
      Status ist;
      while (!world.iprobe(0, 8, &ist)) {
        std::this_thread::yield();
      }
      EXPECT_EQ(ist.count(Datatype::byte()), n)
          << "iprobe must report the advertised rendezvous size";
      Status st = world.probe(0, 8);
      EXPECT_EQ(st.count(Datatype::byte()), n)
          << "probe must report the advertised rendezvous size";
      std::vector<std::byte> buf(static_cast<std::size_t>(n));
      world.recv(buf.data(), n, Datatype::byte(), 0, 8);
    }
  });
}

TEST(WireProtocol, WildcardTagNeverMatchesInternalTraffic) {
  // Collectives use the negative tag space; a user ANY_TAG receive posted
  // concurrently must not swallow their packets.
  world_run(1, 2, [](sim::Process& p) {
    Communicator world = comm_world();
    const int other = 1 - p.rank();
    std::int32_t v = 0;
    Request r = world.irecv(&v, 1, Datatype::int32(), other, any_tag);
    for (int i = 0; i < 3; ++i) {
      world.barrier();  // internal messages fly while the wildcard is open
    }
    const std::int32_t out = 5;
    world.send(&out, 1, Datatype::int32(), other, 1234);
    Status st = r.wait();
    EXPECT_EQ(st.tag, 1234);
    EXPECT_EQ(v, 5);
  });
}

TEST(WireProtocol, ExtHeaderCountsAreTracked) {
  mpi_run(1, 2, [](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "stats");
    const int other = 1 - p.rank();
    // First exchange: ext headers both ways; then ping-pong on fast path.
    std::int32_t v = 0;
    if (p.rank() == 0) {
      c.send(&v, 1, Datatype::int32(), other, 1);
      c.recv(&v, 1, Datatype::int32(), other, 1);
      for (int i = 0; i < 5; ++i) {
        c.send(&v, 1, Datatype::int32(), other, 2);
        c.recv(&v, 1, Datatype::int32(), other, 2);
      }
    } else {
      c.recv(&v, 1, Datatype::int32(), other, 1);
      c.send(&v, 1, Datatype::int32(), other, 1);
      for (int i = 0; i < 5; ++i) {
        c.recv(&v, 1, Datatype::int32(), other, 2);
        c.send(&v, 1, Datatype::int32(), other, 2);
      }
    }
    c.free();
    s.finalize();
  });
}

}  // namespace
}  // namespace sessmpi
