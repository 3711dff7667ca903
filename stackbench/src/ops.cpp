#include "ops.hpp"

#include <cstring>

namespace stackbench {

Ring ring_of(const Communicator& c) {
  Ring r;
  r.me = c.rank();
  r.n = c.size();
  r.left = (r.me + r.n - 1) % r.n;
  r.right = (r.me + 1) % r.n;
  return r;
}

// --- session set-up / teardown ---------------------------------------------------

Setup session_setup(const std::string& tag, std::uint64_t seed,
                    std::uint64_t salt, Tally& t) {
  Setup s;
  const std::int64_t t0 = now_ns();
  {
    STACKBENCH_SPAN("call.core.session_init");
    s.session = Session::init();
  }
  const std::int64_t t1 = now_ns();
  {
    STACKBENCH_SPAN("call.core.group_from_pset");
    s.group = s.session.group_from_pset("mpi://world");
  }
  const std::int64_t t2 = now_ns();
  {
    STACKBENCH_SPAN("call.core.comm_create");
    s.comm = Communicator::create_from_group(s.group, tag);
  }
  const std::int64_t t3 = now_ns();
  t.op(3);
  s.init_ns = t1 - t0;
  s.group_ns = t2 - t1;
  s.create_ns = t3 - t2;
  s.first_msg_ns = ring_token(s.comm, seed, salt, t);
  s.ready_at_ns = now_ns();
  return s;
}

void teardown(Setup& s) {
  {
    STACKBENCH_SPAN("call.core.comm_free");
    s.comm.free();
  }
  STACKBENCH_SPAN("call.core.finalize");
  s.session.finalize();
}

namespace {
std::int32_t token_of(std::uint64_t seed, std::uint64_t salt, int rank) {
  return static_cast<std::int32_t>(
      mix(seed, salt, static_cast<std::uint64_t>(rank), 0x7041) & 0x7FFFFFFF);
}
}  // namespace

std::int64_t ring_token(const Communicator& c, std::uint64_t seed,
                        std::uint64_t salt, Tally& t) {
  const Ring ring = ring_of(c);
  const std::int32_t mine = token_of(seed, salt, ring.me);
  std::int32_t from_left = -1;
  const std::int64_t t0 = now_ns();
  {
    STACKBENCH_SPAN("call.core.sendrecv");
    c.sendrecv(&mine, 1, Datatype::int32(), ring.right, kTagToken, &from_left,
               1, Datatype::int32(), ring.left, kTagToken);
  }
  const std::int64_t dt = now_ns() - t0;
  t.check(from_left == token_of(seed, salt, ring.left), "ring token");
  return dt;
}

// --- halo ------------------------------------------------------------------------------

namespace {
double halo_value(std::uint64_t seed, int sender, std::uint64_t step, int dir,
                  int i) {
  return small_int(mix(seed, static_cast<std::uint64_t>(sender), step,
                       static_cast<std::uint64_t>(dir))) +
         static_cast<double>(i);
}
}  // namespace

void halo_fill(Halo& h, const Ring& ring, std::uint64_t seed,
               std::uint64_t step) {
  for (int i = 0; i < kHaloDoubles; ++i) {
    h.to_right[static_cast<std::size_t>(i)] = halo_value(seed, ring.me, step, 0, i);
    h.to_left[static_cast<std::size_t>(i)] = halo_value(seed, ring.me, step, 1, i);
  }
}

std::int64_t halo_exchange(const Communicator& c, const Ring& ring, Halo& h) {
  const std::int64_t t0 = now_ns();
  STACKBENCH_SPAN("call.core.halo");
  c.sendrecv(h.to_right.data(), kHaloDoubles, Datatype::float64(), ring.right,
             kTagHaloRight, h.from_left.data(), kHaloDoubles,
             Datatype::float64(), ring.left, kTagHaloRight);
  c.sendrecv(h.to_left.data(), kHaloDoubles, Datatype::float64(), ring.left,
             kTagHaloLeft, h.from_right.data(), kHaloDoubles,
             Datatype::float64(), ring.right, kTagHaloLeft);
  return now_ns() - t0;
}

void halo_check(const Halo& h, const Ring& ring, std::uint64_t seed,
                std::uint64_t step, Tally& t) {
  bool left_ok = true;
  bool right_ok = true;
  for (int i = 0; i < kHaloDoubles; ++i) {
    left_ok &= h.from_left[static_cast<std::size_t>(i)] ==
               halo_value(seed, ring.left, step, 0, i);
    right_ok &= h.from_right[static_cast<std::size_t>(i)] ==
                halo_value(seed, ring.right, step, 1, i);
  }
  t.check(left_ok, "halo from left neighbour");
  t.check(right_ok, "halo from right neighbour");
}

// --- reductions ----------------------------------------------------------------------------

namespace {
double small_value(std::uint64_t seed, int rank, std::uint64_t step) {
  return small_int(mix(seed, static_cast<std::uint64_t>(rank), step, 8));
}
double big_offset(std::uint64_t seed, int rank, std::uint64_t step) {
  return small_int(mix(seed, static_cast<std::uint64_t>(rank), step, 64));
}
}  // namespace

void small_fill(SmallReduce& r, const Ring& ring, std::uint64_t seed,
                std::uint64_t step) {
  r.send = small_value(seed, ring.me, step);
  r.recv = -1;
}

std::int64_t allreduce_8b(const Communicator& c, SmallReduce& r) {
  const std::int64_t t0 = now_ns();
  STACKBENCH_SPAN("call.coll.allreduce_8b");
  c.allreduce(&r.send, &r.recv, 1, Datatype::float64(), Op::sum());
  return now_ns() - t0;
}

void small_check(const SmallReduce& r, const Ring& ring, std::uint64_t seed,
                 std::uint64_t step, Tally& t) {
  double want = 0;
  for (int q = 0; q < ring.n; ++q) {
    want += small_value(seed, q, step);
  }
  t.check(r.recv == want, "8 B allreduce sum");
}

BigReduce::BigReduce(std::uint64_t seed) : base(kBigDoubles) {
  for (int i = 0; i < kBigDoubles; ++i) {
    base[static_cast<std::size_t>(i)] =
        static_cast<double>(mix(seed, 0xB16, static_cast<std::uint64_t>(i)) & 0xFFFF);
  }
}

void big_fill(BigReduce& b, const Ring& ring, std::uint64_t seed,
              std::uint64_t step) {
  const double off = big_offset(seed, ring.me, step);
  for (std::size_t i = 0; i < b.send.size(); ++i) {
    b.send[i] = b.base[i] + off;
  }
}

std::int64_t allreduce_64k(const Communicator& c, BigReduce& b) {
  const std::int64_t t0 = now_ns();
  STACKBENCH_SPAN("call.coll.allreduce_64k");
  c.allreduce(b.send.data(), b.recv.data(), kBigDoubles, Datatype::float64(),
              Op::sum());
  return now_ns() - t0;
}

void big_check(const BigReduce& b, const Ring& ring, std::uint64_t seed,
               std::uint64_t step, Tally& t) {
  double offsets = 0;
  for (int q = 0; q < ring.n; ++q) {
    offsets += big_offset(seed, q, step);
  }
  const double n = static_cast<double>(ring.n);
  bool ok = true;
  for (std::size_t i = 0; i < b.recv.size(); ++i) {
    ok &= b.recv[i] == n * b.base[i] + offsets;
  }
  t.check(ok, "64 KiB allreduce sum");
}

std::int64_t barrier(const Communicator& c) {
  const std::int64_t t0 = now_ns();
  STACKBENCH_SPAN("call.coll.barrier");
  c.barrier();
  return now_ns() - t0;
}

std::int64_t agree(const Communicator& c, std::uint64_t contribution,
                   std::uint64_t& agreed, Tally& t) {
  const std::int64_t t0 = now_ns();
  {
    STACKBENCH_SPAN("call.ft.agree");
    agreed = c.agree(contribution);
  }
  const std::int64_t dt = now_ns() - t0;
  t.check((agreed & ~contribution) == 0, "agree result is an AND");
  return dt;
}

ckpt::Config rs42() {
  ckpt::Config cfg;
  cfg.scheme = ckpt::Scheme::reed_solomon;
  cfg.set_data = 4;
  cfg.set_parity = 2;
  cfg.spill_to_fs = false;
  return cfg;
}

std::int64_t ckpt_save(ckpt::Checkpointer& ck, const Communicator& c,
                       Tally& t) {
  const std::uint64_t before = ck.last_committed();
  const std::int64_t t0 = now_ns();
  std::uint64_t epoch = 0;
  {
    STACKBENCH_SPAN("call.ckpt.save");
    epoch = ck.save(c);
  }
  const std::int64_t dt = now_ns() - t0;
  t.check(epoch > before && ck.last_committed() == epoch, "ckpt save commits");
  return dt;
}

// --- windowed ring stream ----------------------------------------------------------------

void stamp(std::vector<std::byte>& buf, std::uint64_t word) {
  std::memcpy(buf.data(), &word, sizeof word);
  std::memcpy(buf.data() + buf.size() - sizeof word, &word, sizeof word);
}

bool stamped(const std::vector<std::byte>& buf, std::uint64_t word) {
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  std::memcpy(&head, buf.data(), sizeof head);
  std::memcpy(&tail, buf.data() + buf.size() - sizeof tail, sizeof tail);
  return head == word && tail == word;
}

std::int64_t ring_isend_window(const Communicator& c, const Ring& ring,
                               std::vector<std::vector<std::byte>>& sbuf,
                               std::vector<std::vector<std::byte>>& rbuf,
                               std::uint64_t seed, std::uint64_t salt,
                               Tally& t) {
  const std::size_t w = sbuf.size();
  for (std::size_t i = 0; i < w; ++i) {
    stamp(sbuf[i], mix(seed, salt, static_cast<std::uint64_t>(ring.me), i));
  }
  std::vector<Request> reqs;
  reqs.reserve(2 * w);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < w; ++i) {
    STACKBENCH_SPAN("call.core.irecv");
    reqs.push_back(c.irecv(rbuf[i].data(), static_cast<int>(rbuf[i].size()),
                           Datatype::byte(), ring.left, kTagRingStream));
  }
  for (std::size_t i = 0; i < w; ++i) {
    STACKBENCH_SPAN("call.core.isend");
    reqs.push_back(c.isend(sbuf[i].data(), static_cast<int>(sbuf[i].size()),
                           Datatype::byte(), ring.right, kTagRingStream));
  }
  {
    STACKBENCH_SPAN("call.core.wait_all");
    Request::wait_all(reqs);
  }
  const std::int64_t dt = now_ns() - t0;
  bool ok = true;
  for (std::size_t i = 0; i < w; ++i) {
    ok &= stamped(rbuf[i], mix(seed, salt, static_cast<std::uint64_t>(ring.left), i));
  }
  t.check(ok, "ring stream stamps");
  t.op(2 * w);
  return dt;
}

}  // namespace stackbench
