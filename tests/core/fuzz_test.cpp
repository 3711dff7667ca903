// Randomized property tests: many ranks exchanging randomized traffic with
// deterministic seeds. Every payload is self-describing (seeded by src, dst,
// tag, and sequence) so any misrouting, cross-communicator leak, or
// out-of-order delivery is detected by content verification.

#include <gtest/gtest.h>

#include <random>

#include "harness.hpp"

namespace sessmpi {
namespace {

using testing::mpi_run;
using testing::world_run;

std::int64_t expected_value(int src, int dst, int tag, int seq) {
  return (static_cast<std::int64_t>(src) << 40) ^
         (static_cast<std::int64_t>(dst) << 24) ^
         (static_cast<std::int64_t>(tag) << 8) ^ seq;
}

TEST(Fuzz, RandomPairwiseTrafficAllDelivered) {
  // Every rank sends kMsgs messages to random destinations with random
  // tags; receivers collect with wildcard receives and verify content
  // against the embedded (src, tag) metadata.
  constexpr int kMsgs = 40;
  world_run(2, 3, [](sim::Process&) {
    Communicator world = comm_world();
    const int n = world.size();
    const int me = world.rank();
    std::mt19937 rng(1234u + static_cast<unsigned>(me));
    std::uniform_int_distribution<int> pick_dst(0, n - 1);
    std::uniform_int_distribution<int> pick_tag(0, 7);

    // Plan: decide destinations, then allreduce the per-destination counts
    // so everyone knows how many messages to expect.
    std::vector<std::int64_t> sent_to(static_cast<std::size_t>(n), 0);
    std::vector<std::pair<int, int>> plan;  // (dst, tag)
    for (int i = 0; i < kMsgs; ++i) {
      const int dst = pick_dst(rng);
      plan.emplace_back(dst, pick_tag(rng));
      ++sent_to[static_cast<std::size_t>(dst)];
    }
    std::vector<std::int64_t> expect_in(static_cast<std::size_t>(n), 0);
    world.allreduce(sent_to.data(), expect_in.data(), n, Datatype::int64(),
                    Op::sum());
    const std::int64_t my_expected = expect_in[static_cast<std::size_t>(me)];

    // Fire all sends, then drain with wildcard receives.
    std::vector<std::int64_t> payloads;
    payloads.reserve(plan.size());
    std::vector<Request> sends;
    int seq = 0;
    for (const auto& [dst, tag] : plan) {
      payloads.push_back(expected_value(me, dst, tag, seq++));
      sends.push_back(world.isend(&payloads.back(), 1, Datatype::int64(),
                                  dst, tag));
    }
    for (std::int64_t i = 0; i < my_expected; ++i) {
      std::int64_t v = 0;
      Status st = world.recv(&v, 1, Datatype::int64(), any_source, any_tag);
      // Verify the payload's embedded src/tag matches the envelope.
      bool matched = false;
      for (int s = 0; s < kMsgs && !matched; ++s) {
        matched = v == expected_value(st.source, me, st.tag, s);
      }
      EXPECT_TRUE(matched) << "corrupted or misrouted payload";
    }
    Request::wait_all(sends);
    world.barrier();
  });
}

TEST(Fuzz, MixedEagerAndRendezvousSizes) {
  // Random sizes straddling the eager limit; contents checked byte-wise.
  world_run(1, 4, [](sim::Process&) {
    Communicator world = comm_world();
    const int me = world.rank();
    const int n = world.size();
    std::mt19937 rng(99u + static_cast<unsigned>(me));
    std::uniform_int_distribution<int> pick_size(
        1, static_cast<int>(kEagerLimit) * 3);
    constexpr int kRounds = 10;

    for (int round = 0; round < kRounds; ++round) {
      const int partner = (me + 1 + round % (n - 1)) % n;
      // Everyone sends to its partner and receives from whoever picked it;
      // use a round-scoped tag and exchange sizes first.
      const int from = [&] {
        for (int r = 0; r < n; ++r) {
          if ((r + 1 + round % (n - 1)) % n == me) {
            return r;
          }
        }
        return -1;
      }();
      const int size = pick_size(rng);
      std::int64_t size64 = size, in_size = 0;
      world.sendrecv(&size64, 1, Datatype::int64(), partner, 100 + round,
                     &in_size, 1, Datatype::int64(), from, 100 + round);

      std::vector<std::byte> out(static_cast<std::size_t>(size));
      for (int i = 0; i < size; ++i) {
        out[static_cast<std::size_t>(i)] =
            static_cast<std::byte>((me * 31 + round * 7 + i) & 0xff);
      }
      std::vector<std::byte> in(static_cast<std::size_t>(in_size));
      Request r = world.irecv(in.data(), static_cast<int>(in_size),
                              Datatype::byte(), from, 200 + round);
      world.send(out.data(), size, Datatype::byte(), partner, 200 + round);
      Status st = r.wait();
      EXPECT_EQ(st.count_bytes, static_cast<std::size_t>(in_size));
      for (int i = 0; i < static_cast<int>(in_size); ++i) {
        ASSERT_EQ(in[static_cast<std::size_t>(i)],
                  static_cast<std::byte>((from * 31 + round * 7 + i) & 0xff))
            << "round " << round << " byte " << i;
      }
    }
  });
}

TEST(Fuzz, ConcurrentSessionsRandomizedIsolation) {
  // Three sessions' communicators carry interleaved traffic with identical
  // tags; content verification proves no cross-session leakage.
  constexpr int kComms = 3;
  constexpr int kRounds = 12;
  mpi_run(1, 2, [](sim::Process& p) {
    std::vector<Session> sessions;
    std::vector<Communicator> comms;
    for (int i = 0; i < kComms; ++i) {
      sessions.push_back(Session::init());
      comms.push_back(Communicator::create_from_group(
          sessions.back().group_from_pset("mpi://world"),
          "fuzz" + std::to_string(i)));
    }
    const int other = 1 - p.rank();
    std::mt19937 rng(7u);  // same schedule on both ranks
    std::uniform_int_distribution<int> pick(0, kComms - 1);

    for (int round = 0; round < kRounds; ++round) {
      const int c = pick(rng);
      std::int64_t out = expected_value(p.rank(), other, c, round);
      std::int64_t in = 0;
      comms[static_cast<std::size_t>(c)].sendrecv(
          &out, 1, Datatype::int64(), other, 5, &in, 1, Datatype::int64(),
          other, 5);
      EXPECT_EQ(in, expected_value(other, p.rank(), c, round));
    }
    for (auto& c : comms) {
      c.free();
    }
    for (auto& s : sessions) {
      s.finalize();
    }
  });
}

class FuzzSeeds : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzSeeds, CollectiveResultsMatchSerialReference) {
  // Randomized allreduce/bcast/scatter sequences checked against a serial
  // recomputation.
  const unsigned seed = GetParam();
  world_run(2, 2, [seed](sim::Process&) {
    Communicator world = comm_world();
    const int n = world.size();
    std::mt19937 rng(seed);  // identical schedule everywhere
    std::uniform_int_distribution<int> pick_op(0, 2);
    std::uniform_int_distribution<int> pick_root(0, n - 1);
    std::uniform_int_distribution<std::int64_t> pick_val(-1000, 1000);

    for (int round = 0; round < 15; ++round) {
      const int what = pick_op(rng);
      const int root = pick_root(rng);
      // Deterministic per-rank contribution derived from the shared rng.
      std::vector<std::int64_t> contrib(static_cast<std::size_t>(n));
      for (int r = 0; r < n; ++r) {
        contrib[static_cast<std::size_t>(r)] = pick_val(rng);
      }
      const std::int64_t mine = contrib[static_cast<std::size_t>(world.rank())];
      if (what == 0) {
        std::int64_t got = 0, want = 0;
        world.allreduce(&mine, &got, 1, Datatype::int64(), Op::sum());
        for (std::int64_t v : contrib) {
          want += v;
        }
        ASSERT_EQ(got, want) << "round " << round;
      } else if (what == 1) {
        std::int64_t v = world.rank() == root ? mine : 0;
        world.bcast(&v, 1, Datatype::int64(), root);
        ASSERT_EQ(v, contrib[static_cast<std::size_t>(root)]);
      } else {
        std::int64_t got = 0, want = 0;
        world.allreduce(&mine, &got, 1, Datatype::int64(), Op::max());
        want = *std::max_element(contrib.begin(), contrib.end());
        ASSERT_EQ(got, want);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds, ::testing::Values(1, 42, 777, 31337));

}  // namespace
}  // namespace sessmpi
