// Collective entry points and the schedule builders behind them
// (DESIGN.md §13).
//
// Every Communicator collective builds a coll::Sched (sched.hpp) from the
// communicator's plan and runs it: inline on the caller when blocking, from
// the progress engine when nonblocking, with one builder per operation.
// Flat and hierarchical are two plans, not two code paths (plan.hpp): the
// topology plan groups ranks by node, so on-node data moves through the
// node's shared region in place and only node heads touch the fabric; the
// flat plan puts every rank on a node of its own, which turns the same
// builders into the classic binomial trees and linear exchanges.
//
// Two shapes are fixed on purpose. On a flat plan allreduce is a reduce to
// rank 0 chained with a bcast, the baseline the hierarchical allreduce is
// measured against; and non-commutative reductions keep the strict
// rank-ordered fold, so their results are bit-identical on every plan.

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sched.hpp"
#include "sessmpi/comm.hpp"
#include "sessmpi/obs/trace.hpp"

namespace sessmpi {

using coll::Plan;
using coll::Sched;
using detail::CommState;

namespace {

const std::shared_ptr<CommState>& coll_state(
    const std::shared_ptr<CommState>& s) {
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "collective on invalid communicator");
  }
  return s;
}

void check_root(const CommState& s, int root, const char* op) {
  if (root < 0 || root >= s.size()) {
    s.errh.raise(ErrClass::root, std::string(op) + " root out of range");
  }
}

std::size_t nbytes(int count, const Datatype& dt) {
  return static_cast<std::size_t>(count) * dt.extent();
}

/// Binomial-tree parent/children of `vrank` (virtual rank, root at 0).
void tree(int vrank, int size, int* parent, std::vector<int>* children) {
  *parent = -1;
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((vrank & mask) != 0) {
      *parent = vrank & ~mask;
      return;
    }
    if ((vrank | mask) < size) {
      children->push_back(vrank | mask);
    }
  }
}

/// Leader of `node`, except the root leads its own node so rooted
/// operations never relay through an extra hop.
int head_of(const Plan& p, int node, int root) {
  return p.node_of(root) == node ? root : p.leaders[node];
}

struct Tree {
  int parent = -1;            ///< comm rank; -1 at the root
  std::vector<int> children;  ///< comm ranks
};

/// My edges in the binomial tree over node heads, rotated so the root's
/// node is the tree root.
Tree head_tree(const Plan& p, int root) {
  const int nh = p.nodes();
  const int rootnode = p.node_of(root);
  const auto head = [&](int v) {
    return head_of(p, (v + rootnode) % nh, root);
  };
  int vparent = -1;
  std::vector<int> vchildren;
  tree((p.my_node - rootnode + nh) % nh, nh, &vparent, &vchildren);
  Tree t;
  if (vparent >= 0) {
    t.parent = head(vparent);
  }
  for (int v : vchildren) {
    t.children.push_back(head(v));
  }
  return t;
}

/// MPI_IN_PLACE contributions sit in recvbuf, which doubles as the output:
/// stage them aside before the result overwrites it.
const void* stage(Sched& sc, const void* sendbuf, const void* recvbuf,
                  std::size_t bytes) {
  if (sendbuf != in_place) {
    return sendbuf;
  }
  std::byte* copy = sc.scratch(bytes);
  if (bytes > 0) {
    std::memcpy(copy, recvbuf, bytes);
  }
  return copy;
}

/// Fold every other member's channel-0 publication into `acc` in socket
/// order, one read per round so the fold order is fixed.
void fold_members(Sched& sc, std::byte* acc, int count) {
  for (const auto& sock : sc.plan().my_sockets) {
    for (int m : sock) {
      if (m != sc.me()) {
        sc.read(m, 0, 0, acc, 0).count = count;
        sc.next();
      }
    }
  }
}

// --- builders -----------------------------------------------------------------

/// Members check in on channel 0 and wait for their leader's release on
/// channel 1; leaders run a binomial fan-in/fan-out among themselves. The
/// release carries no data, so a leader is done once it published it: a
/// member that has not read it yet can still finish, even on a revoked
/// communicator, and every survivor agrees the barrier completed.
void build_barrier(Sched& sc) {
  const Plan& p = sc.plan();
  if (!p.i_am_leader) {
    sc.publish(0, 0, nullptr, 0, 1);
    sc.read(p.leaders[p.my_node], 1, 1, nullptr, 0);
    return;
  }
  for (int m : p.my_members) {
    if (m != sc.me()) {
      sc.read(m, 0, 0, nullptr, 0);
    }
  }
  const Tree t = head_tree(p, p.leaders[0]);
  for (int c : t.children) {
    sc.recv(c, 0, nullptr, 0);
  }
  sc.next();
  if (t.parent >= 0) {
    sc.send(t.parent, 0, nullptr, 0);
    sc.recv(t.parent, 0, nullptr, 0);
    sc.next();
  }
  for (int c : t.children) {
    sc.send(c, 0, nullptr, 0);
  }
  sc.publish(1, 1, nullptr, 0, p.on_node - 1);
}

/// Binomial tree over node heads, rotated by root; each head publishes
/// every segment once and its members copy it straight out of the head's
/// buffer. Large payloads are pipelined in up to 8 segments when nodes have
/// members, so a head's wire transfer overlaps their copies; with one rank
/// per node there is nothing to overlap and each segment costs a
/// rendezvous per edge, so the payload goes whole.
void build_bcast(Sched& sc, void* buf, std::size_t bytes, int root) {
  const Plan& p = sc.plan();
  auto* out = static_cast<std::byte*>(buf);
  const std::size_t nseg = p.multi_member && bytes >= (128u << 10)
                               ? std::min<std::size_t>(8, bytes / (64u << 10))
                               : 1;
  const std::size_t segsz = (bytes + nseg - 1) / nseg;
  const int head = head_of(p, p.my_node, root);
  const Tree t = head_tree(p, root);
  for (std::size_t si = 0; si < nseg; ++si) {
    std::byte* seg = out + si * segsz;
    const std::size_t sb = std::min(segsz, bytes - si * segsz);
    if (sc.me() != head) {
      sc.read(head, 0, si, seg, sb);
      continue;
    }
    const int round = static_cast<int>(si);
    if (t.parent >= 0) {
      sc.recv(t.parent, round, seg, sb);
      sc.next();
    }
    for (int c : t.children) {
      sc.send(c, round, seg, sb);
    }
    sc.publish(0, si, seg, sb, p.on_node - 1);
    sc.next();
  }
  if (sc.me() == head) {
    sc.drain(0);
  }
}

/// Commutative reduce: members publish their contribution once, each head
/// folds its node in socket order, then a binomial tree over heads folds
/// the node partials toward the root.
void build_reduce(Sched& sc, const void* contrib, void* recvbuf, int count,
                  std::size_t bytes, int root) {
  const Plan& p = sc.plan();
  if (sc.me() != head_of(p, p.my_node, root)) {
    sc.publish(0, 0, contrib, bytes, 1);
    sc.next();
    sc.drain(0);
    return;
  }
  std::byte* acc = sc.scratch(bytes);
  sc.copy(acc, contrib, bytes);
  fold_members(sc, acc, count);
  const Tree t = head_tree(p, root);
  std::vector<std::byte*> partials;
  for (int c : t.children) {
    partials.push_back(sc.scratch(bytes));
    sc.recv(c, 0, partials.back(), bytes);
  }
  sc.next();
  for (std::byte* part : partials) {
    sc.reduce(part, acc, count);
  }
  if (t.parent >= 0) {
    sc.send(t.parent, 0, acc, bytes);
  } else {
    sc.copy(recvbuf, acc, bytes);
  }
}

/// Non-commutative reduce: a strict rank-ordered fold at the root, never
/// regrouped; contributions from the root's node are read in place.
void build_reduce_ordered(Sched& sc, const void* contrib, void* recvbuf,
                          int count, std::size_t bytes, int root) {
  const Plan& p = sc.plan();
  const int rootnode = p.node_of(root);
  const auto near_root = [&](int r) { return p.node_of(r) == rootnode; };
  if (sc.me() != root) {
    if (near_root(sc.me())) {
      sc.publish(0, 0, contrib, bytes, 1);
      sc.next();
      sc.drain(0);
    } else {
      sc.send(root, 0, contrib, bytes);
    }
    return;
  }
  std::vector<std::byte*> remote(static_cast<std::size_t>(p.nranks));
  for (int r = 0; r < p.nranks; ++r) {
    if (!near_root(r)) {
      remote[r] = sc.scratch(bytes);
      sc.recv(r, 0, remote[r], bytes);
    }
  }
  sc.next();
  auto* acc = static_cast<std::byte*>(recvbuf);
  for (int r = 0; r < p.nranks; ++r) {  // acc = c0 op c1 op ... op c(n-1)
    if (r != root && near_root(r)) {
      sc.read(r, 0, 0, acc, bytes).count = r == 0 ? 0 : count;
      sc.next();
    } else if (r == 0) {
      sc.copy(acc, r == root ? contrib : remote[r], bytes);
    } else {
      sc.reduce(r == root ? contrib : remote[r], acc, count);
    }
  }
}

/// Recursive doubling among node leaders, with the classic pre/post fold
/// of the non-power-of-two remainder; every round has its own tag.
void rd_exchange(Sched& sc, std::byte* acc, int count, std::size_t bytes) {
  const Plan& p = sc.plan();
  const int nh = p.nodes();
  const int h = p.my_node;
  int pof2 = 1;
  int log2p = 0;
  while (pof2 * 2 <= nh) {
    pof2 *= 2;
    ++log2p;
  }
  const int rem = nh - pof2;
  if (h >= pof2) {
    // Fold into a partner, then receive the finished value.
    sc.send(p.leaders[h - pof2], 0, acc, bytes);
    sc.recv(p.leaders[h - pof2], 1 + log2p, acc, bytes);
    sc.next();
    return;
  }
  std::byte* tmp = sc.scratch(bytes);
  if (h < rem) {
    sc.recv(p.leaders[h + pof2], 0, tmp, bytes);
    sc.next();
    sc.reduce(tmp, acc, count);
  }
  int round = 1;
  for (int mask = 1; mask < pof2; mask <<= 1, ++round) {
    sc.send(p.leaders[h ^ mask], round, acc, bytes);
    sc.recv(p.leaders[h ^ mask], round, tmp, bytes);
    sc.next();
    sc.reduce(tmp, acc, count);
  }
  if (h < rem) {
    sc.send(p.leaders[h + pof2], round, acc, bytes);
  }
  sc.next();
}

/// Ring among node leaders for large payloads: an element-chunked
/// reduce-scatter, then an allgather. One tag serves every step: each
/// directed leader pair carries its messages in order, and receives posted
/// in the same order pair up with them.
void ring_exchange(Sched& sc, std::byte* acc, int count) {
  const Plan& p = sc.plan();
  const int nh = p.nodes();
  const int h = p.my_node;
  const int chunk = (count + nh - 1) / nh;  // elements
  const auto lo = [&](int k) { return std::min(count, k * chunk); };
  const auto elems = [&](int k) {
    return std::min(count, (k + 1) * chunk) - lo(k);
  };
  const auto at = [&](int k) { return acc + nbytes(lo(k), sc.dt()); };
  const int right = p.leaders[(h + 1) % nh];
  const int left = p.leaders[(h - 1 + nh) % nh];
  std::byte* tmp = sc.scratch(nbytes(chunk, sc.dt()));
  const auto step = [&](int sk, int rk, std::byte* into) {
    if (elems(sk) > 0) {
      sc.send(right, 1, at(sk), nbytes(elems(sk), sc.dt()));
    }
    if (elems(rk) > 0) {
      sc.recv(left, 1, into, nbytes(elems(rk), sc.dt()));
    }
    sc.next();
  };
  for (int t = 0; t < nh - 1; ++t) {  // reduce-scatter
    const int rk = (h - t - 1 + nh) % nh;
    step((h - t + nh) % nh, rk, tmp);
    sc.reduce(tmp, at(rk), elems(rk));
  }
  for (int t = 0; t < nh - 1; ++t) {  // allgather
    step((h + 1 - t + nh) % nh, (h - t + nh) % nh, at((h - t + nh) % nh));
  }
}

/// Allreduce. On a topology plan members publish once and copy the result
/// straight out of their leader's recvbuf; leaders fold their node, then
/// exchange by ring (large payloads, many nodes) or recursive doubling.
/// Plans with one rank per node (the flat plan) and non-commutative ops
/// chain reduce-to-0 and bcast.
void build_allreduce(Sched& sc, const void* sendbuf, void* recvbuf,
                     int count) {
  const Plan& p = sc.plan();
  const std::size_t bytes = nbytes(count, sc.dt());
  const void* contrib = stage(sc, sendbuf, recvbuf, bytes);
  if (!p.multi_member || !sc.op().commutative()) {
    if (sc.op().commutative()) {
      build_reduce(sc, contrib, recvbuf, count, bytes, 0);
    } else {
      build_reduce_ordered(sc, contrib, recvbuf, count, bytes, 0);
    }
    sc.next();
    sc.open();
    build_bcast(sc, recvbuf, bytes, 0);
    return;
  }
  if (!p.i_am_leader) {
    sc.publish(0, 0, contrib, bytes, 1);
    sc.read(p.leaders[p.my_node], 1, 1, recvbuf, bytes);
    return;
  }
  std::byte* acc = sc.scratch(bytes);
  sc.copy(acc, contrib, bytes);
  fold_members(sc, acc, count);
  const int nh = p.nodes();
  if (nh >= 4 && bytes >= (128u << 10) && count >= nh) {
    ring_exchange(sc, acc, count);
  } else if (nh > 1) {
    rd_exchange(sc, acc, count, bytes);
  }
  sc.next();
  sc.copy(recvbuf, acc, bytes);
  sc.publish(1, 1, recvbuf, bytes, p.on_node - 1);
  sc.next();
  sc.drain(1);
}

/// Gather: members publish once (the root reads its own node in place);
/// each remote head packs its node into one message, so the root receives
/// O(nodes) messages. A null contrib at the root means MPI_IN_PLACE.
void build_gather(Sched& sc, const void* contrib, std::size_t sbytes,
                  void* recvbuf, std::size_t rslot, int root) {
  const Plan& p = sc.plan();
  const auto& mine = p.my_members;
  if (sc.me() == root) {
    auto* out = static_cast<std::byte*>(recvbuf);
    std::vector<std::pair<std::vector<int>, std::byte*>> unpack;
    for (int ni = 0; ni < p.nodes(); ++ni) {
      if (ni == p.my_node) {
        continue;
      }
      const auto size = static_cast<std::size_t>(p.node_size(ni));
      const bool direct = p.contiguous(ni);
      std::byte* dst = direct ? out + p.leaders[ni] * rslot
                              : sc.scratch(size * rslot);
      sc.recv(head_of(p, ni, root), 0, dst, size * rslot);
      if (!direct) {
        unpack.emplace_back(p.members_of(ni), dst);
      }
    }
    for (int m : mine) {
      if (m != root) {
        sc.read(m, 0, 0, out + m * rslot, rslot);
      }
    }
    if (contrib != nullptr) {
      sc.copy(out + root * rslot, contrib, std::min(sbytes, rslot));
    }
    sc.next();
    for (const auto& [mem, packed] : unpack) {
      for (std::size_t i = 0; i < mem.size(); ++i) {
        sc.copy(out + mem[i] * rslot, packed + i * rslot, rslot);
      }
    }
  } else if (sc.me() != head_of(p, p.my_node, root)) {
    sc.publish(0, 0, contrib, sbytes, 1);
    sc.next();
    sc.drain(0);
  } else if (mine.size() == 1) {
    sc.send(root, 0, contrib, sbytes);
  } else {
    std::byte* packed = sc.scratch(mine.size() * sbytes);
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (mine[i] == sc.me()) {
        sc.copy(packed + i * sbytes, contrib, sbytes);
      } else {
        sc.read(mine[i], 0, 0, packed + i * sbytes, sbytes);
      }
    }
    sc.next();
    sc.send(root, 0, packed, mine.size() * sbytes);
  }
}

/// Scatter: the root publishes its send buffer once and its node's members
/// slice their blocks out directly; each remote node gets one packed
/// message, re-published by its head. A null recvbuf at the root means
/// MPI_IN_PLACE.
void build_scatter(Sched& sc, const void* sendbuf, std::size_t sslot,
                   void* recvbuf, std::size_t rbytes, int root) {
  const Plan& p = sc.plan();
  const auto& mine = p.my_members;
  if (sc.me() == root) {
    const auto* in = static_cast<const std::byte*>(sendbuf);
    sc.publish(0, 0, in, sslot, p.on_node - 1);
    for (int ni = 0; ni < p.nodes(); ++ni) {
      if (ni == p.my_node) {
        continue;
      }
      const auto size = static_cast<std::size_t>(p.node_size(ni));
      const std::byte* src = in + p.leaders[ni] * sslot;
      if (!p.contiguous(ni)) {
        const std::vector<int> mem = p.members_of(ni);
        std::byte* packed = sc.scratch(size * sslot);
        for (std::size_t i = 0; i < size; ++i) {
          sc.copy(packed + i * sslot, in + mem[i] * sslot, sslot);
        }
        src = packed;
      }
      sc.send(head_of(p, ni, root), 0, src, size * sslot);
    }
    if (recvbuf != nullptr) {
      sc.copy(recvbuf, in + root * sslot, std::min(sslot, rbytes));
    }
    sc.next();
    sc.drain(0);
  } else if (p.node_of(root) == p.my_node) {
    sc.read(root, 0, 0, recvbuf, rbytes).slice = sc.me();
  } else if (mine.size() == 1) {
    sc.recv(root, 0, recvbuf, rbytes);
  } else if (p.i_am_leader) {
    std::byte* packed = sc.scratch(mine.size() * rbytes);
    sc.recv(root, 0, packed, mine.size() * rbytes);
    sc.next();
    sc.publish(1, 1, packed, rbytes, p.on_node - 1);
    sc.copy(recvbuf, packed + p.my_slot * rbytes, rbytes);
    sc.next();
    sc.drain(1);
  } else {
    sc.read(p.leaders[p.my_node], 1, 1, recvbuf, rbytes).slice = p.my_slot;
  }
}

/// Ladder alltoall: every rank publishes its send buffer once and on-node
/// peers slice their blocks straight out of it. Across nodes only heads
/// exchange, one packed message per node pair (destination-major member
/// blocks), re-published on arrival so members unpack straight from the
/// head's receive buffer.
void build_alltoall(Sched& sc, const void* sendbuf, std::size_t sslot,
                    void* recvbuf, std::size_t rslot) {
  const Plan& p = sc.plan();
  const int nh = p.nodes();
  const int me = sc.me();
  const auto& mine = p.my_members;
  const std::size_t nmine = mine.size();
  std::vector<std::vector<int>> node(static_cast<std::size_t>(nh));
  for (int k = 0; k < nh; ++k) {
    node[k] = p.members_of((p.my_node + k) % nh);  // k nodes ahead of mine
  }
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  const bool head = nh > 1 && p.i_am_leader;
  sc.publish(0, 0, in, sslot, p.on_node - 1);
  sc.copy(out + me * rslot, in + me * sslot, std::min(sslot, rslot));
  std::vector<std::byte*> packed(nh);
  std::vector<std::byte*> arrived(nh);
  for (int k = 1; head && k < nh; ++k) {
    packed[k] = sc.scratch(node[k].size() * nmine * sslot);
    arrived[k] = sc.scratch(nmine * node[nh - k].size() * rslot);
  }
  // Heads pack every member's blocks for every remote member while holding
  // its publication. A round's steps complete in any order, so the reads
  // that release a publication go in a later round than those holding it.
  for (std::size_t mi = 0; head && mi < nmine; ++mi) {
    for (int k = 1; k < nh; ++k) {
      for (std::size_t di = 0; di < node[k].size(); ++di) {
        std::byte* dst = packed[k] + (di * nmine + mi) * sslot;
        const int d = node[k][di];
        if (mine[mi] == me) {
          sc.copy(dst, in + d * sslot, sslot);
        } else {
          coll::Step& st = sc.read(mine[mi], 0, 0, dst, sslot);
          st.slice = static_cast<std::size_t>(d);
          st.hold = true;
        }
      }
    }
  }
  sc.next();
  for (int q : mine) {
    if (q != me) {
      sc.read(q, 0, 0, out + q * rslot, rslot).slice =
          static_cast<std::size_t>(me);
    }
  }
  sc.next();
  for (int k = 1; head && k < nh; ++k) {
    sc.send(p.leaders[(p.my_node + k) % nh], 1, packed[k],
            node[k].size() * nmine * sslot);
    sc.recv(p.leaders[(p.my_node - k + nh) % nh], 1, arrived[k],
            nmine * node[nh - k].size() * rslot);
  }
  sc.next();
  for (int k = 1; k < nh; ++k) {
    const auto& src = node[nh - k];
    for (std::size_t si = 0; si < src.size(); ++si) {
      const std::size_t slice = p.my_slot * src.size() + si;
      if (head) {
        sc.copy(out + src[si] * rslot, arrived[k] + slice * rslot, rslot);
      } else {
        if (si + 1 == src.size()) {
          sc.next();  // the releasing read, after every holding one
        }
        coll::Step& st = sc.read(p.leaders[p.my_node], 1, k,
                                 out + src[si] * rslot, rslot);
        st.slice = slice;
        st.hold = si + 1 < src.size();
      }
    }
    if (head) {
      sc.publish(1, k, arrived[k], rslot, p.on_node - 1);
      sc.next();
    }
  }
  sc.next();
  if (head) {
    sc.drain(1);
  }
  sc.drain(0);  // my send buffer goes back to the user
}

/// Pins one span id for the duration of a collective entry point: every
/// constituent message this rank sends (tree hops, token exchanges, leader
/// fan-out) carries the op's id as its wire trace context, so the merged
/// trace renders the whole collective as a single distributed flow rooted
/// at this rank's coll.* slice (DESIGN.md §16). Delegating ops (allgather,
/// reduce_scatter_block) nest — each sub-op opens its own flow, and
/// ScopedFlowContext restores the outer id on exit.
struct CollFlow {
  std::uint64_t id;
  obs::ScopedFlowContext scope;
  CollFlow(const char* name, std::uint64_t arg)
      : id(obs::Tracer::instance().enabled() ? obs::Tracer::next_span_id()
                                             : 0),
        scope(id) {
    if (id != 0) {
      OBS_FLOW_START(name, "coll", id, arg);
    }
  }
};

/// Build an operation with `build` and run it to completion on the caller.
template <class Build>
void run(const std::shared_ptr<CommState>& s, const Datatype& dt,
         const Op& op, Build&& build) {
  Sched sc(s, dt, op);
  build(sc);
  sc.run();
}

/// Build an operation with `build` and hand it to the progress engine.
template <class Build>
detail::RequestPtr launch(const std::shared_ptr<CommState>& s,
                          const Datatype& dt, const Op& op, Build&& build) {
  auto sc = std::make_unique<Sched>(s, dt, op);
  build(*sc);
  return Sched::launch(std::move(sc));
}

}  // namespace

// --- Communicator entry points ---------------------------------------------

void Communicator::barrier() const {
  const auto& s = coll_state(state_);
  OBS_SPAN("coll.barrier", "coll");
  const CollFlow flow("coll.barrier", 0);
  try {
    run(s, Datatype::byte(), Op::sum(), build_barrier);
  } catch (const Error& e) {
    s->errh.raise(e.error_class(), "barrier aborted");
  }
}

Request Communicator::ibarrier() const {
  return Request{launch(coll_state(state_), Datatype::byte(), Op::sum(),
                        build_barrier)};
}

void Communicator::bcast(void* buf, int count, const Datatype& dt,
                         int root) const {
  const auto& s = coll_state(state_);
  check_root(*s, root, "bcast");
  const std::size_t bytes = nbytes(count, dt);
  OBS_SPAN_ARG("coll.bcast", "coll", bytes);
  const CollFlow flow("coll.bcast", bytes);
  run(s, dt, Op::sum(),
      [&](Sched& sc) { build_bcast(sc, buf, bytes, root); });
}

Request Communicator::ibcast(void* buf, int count, const Datatype& dt,
                             int root) const {
  const auto& s = coll_state(state_);
  check_root(*s, root, "ibcast");
  const std::size_t bytes = nbytes(count, dt);
  return Request{launch(s, dt, Op::sum(), [&](Sched& sc) {
    build_bcast(sc, buf, bytes, root);
  })};
}

void Communicator::reduce(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dt, const Op& op, int root) const {
  const auto& s = coll_state(state_);
  check_root(*s, root, "reduce");
  const std::size_t bytes = nbytes(count, dt);
  OBS_SPAN_ARG("coll.reduce", "coll", bytes);
  const CollFlow flow("coll.reduce", bytes);
  run(s, dt, op, [&](Sched& sc) {
    const void* contrib = stage(sc, sendbuf, recvbuf, bytes);
    if (op.commutative()) {
      build_reduce(sc, contrib, recvbuf, count, bytes, root);
    } else {
      build_reduce_ordered(sc, contrib, recvbuf, count, bytes, root);
    }
  });
}

void Communicator::allreduce(const void* sendbuf, void* recvbuf, int count,
                             const Datatype& dt, const Op& op) const {
  const auto& s = coll_state(state_);
  const std::size_t bytes = nbytes(count, dt);
  OBS_SPAN_ARG("coll.allreduce", "coll", bytes);
  const CollFlow flow("coll.allreduce", bytes);
  run(s, dt, op,
      [&](Sched& sc) { build_allreduce(sc, sendbuf, recvbuf, count); });
}

Request Communicator::iallreduce(const void* sendbuf, void* recvbuf, int count,
                                 const Datatype& dt, const Op& op) const {
  return Request{launch(coll_state(state_), dt, op, [&](Sched& sc) {
    build_allreduce(sc, sendbuf, recvbuf, count);
  })};
}

void Communicator::gather(const void* sendbuf, int sendcount,
                          const Datatype& sdt, void* recvbuf, int recvcount,
                          const Datatype& rdt, int root) const {
  const auto& s = coll_state(state_);
  check_root(*s, root, "gather");
  const bool root_in_place = sendbuf == in_place && s->myrank == root;
  if (sendbuf == in_place && s->myrank != root) {
    s->errh.raise(ErrClass::buffer, "MPI_IN_PLACE gather on non-root");
  }
  const std::size_t rslot = nbytes(recvcount, rdt);
  const std::size_t sbytes = root_in_place ? rslot : nbytes(sendcount, sdt);
  OBS_SPAN_ARG("coll.gather", "coll", sbytes);
  const CollFlow flow("coll.gather", sbytes);
  run(s, rdt, Op::sum(), [&](Sched& sc) {
    build_gather(sc, root_in_place ? nullptr : sendbuf, sbytes, recvbuf,
                 rslot, root);
  });
}

void Communicator::scatter(const void* sendbuf, int sendcount,
                           const Datatype& sdt, void* recvbuf, int recvcount,
                           const Datatype& rdt, int root) const {
  const auto& s = coll_state(state_);
  check_root(*s, root, "scatter");
  const bool root_in_place = recvbuf == in_place && s->myrank == root;
  if (recvbuf == in_place && s->myrank != root) {
    s->errh.raise(ErrClass::buffer, "MPI_IN_PLACE scatter on non-root");
  }
  const std::size_t sslot = nbytes(sendcount, sdt);
  const std::size_t rbytes = root_in_place ? sslot : nbytes(recvcount, rdt);
  OBS_SPAN_ARG("coll.scatter", "coll", sslot);
  const CollFlow flow("coll.scatter", sslot);
  run(s, sdt, Op::sum(), [&](Sched& sc) {
    build_scatter(sc, sendbuf, sslot, root_in_place ? nullptr : recvbuf,
                  rbytes, root);
  });
}

void Communicator::allgather(const void* sendbuf, int sendcount,
                             const Datatype& sdt, void* recvbuf, int recvcount,
                             const Datatype& rdt) const {
  const auto& s = coll_state(state_);
  // MPI_IN_PLACE allgather: every rank's contribution already sits at its
  // block of recvbuf; route it through gather's root-in-place handling by
  // pointing each non-root contribution at the block.
  if (sendbuf == in_place) {
    const auto* mine = static_cast<const std::byte*>(recvbuf) +
                       static_cast<std::size_t>(s->myrank) *
                           nbytes(recvcount, rdt);
    gather(s->myrank == 0 ? in_place : static_cast<const void*>(mine),
           recvcount, rdt, recvbuf, recvcount, rdt, 0);
  } else {
    gather(sendbuf, sendcount, sdt, recvbuf, recvcount, rdt, 0);
  }
  bcast(recvbuf, recvcount * s->size(), rdt, 0);
}

void Communicator::alltoall(const void* sendbuf, int sendcount,
                            const Datatype& sdt, void* recvbuf, int recvcount,
                            const Datatype& rdt) const {
  const auto& s = coll_state(state_);
  const std::size_t sslot = nbytes(sendcount, sdt);
  const std::size_t rslot = nbytes(recvcount, rdt);
  OBS_SPAN_ARG("coll.alltoall", "coll", sslot);
  const CollFlow flow("coll.alltoall", sslot);
  run(s, sdt, Op::sum(), [&](Sched& sc) {
    build_alltoall(sc, sendbuf, sslot, recvbuf, rslot);
  });
}

void Communicator::exscan(const void* sendbuf, void* recvbuf, int count,
                          const Datatype& dt, const Op& op) const {
  const auto& s = coll_state(state_);
  const std::size_t bytes = nbytes(count, dt);
  OBS_SPAN_ARG("coll.exscan", "coll", bytes);
  const CollFlow flow("coll.exscan", bytes);
  run(s, dt, op, [&](Sched& sc) {
    const void* contrib = stage(sc, sendbuf, recvbuf, bytes);
    const int me = s->myrank;
    std::byte* prefix = me > 0 ? sc.scratch(bytes) : nullptr;
    if (me > 0) {
      sc.recv(me - 1, 0, prefix, bytes);
      sc.next();
      sc.copy(recvbuf, prefix, bytes);
    }
    if (me + 1 < s->size()) {
      if (me > 0) {
        sc.reduce(contrib, prefix, count);  // forward = prefix op local
      }
      sc.send(me + 1, 0, me > 0 ? prefix : contrib, bytes);
    }
  });
}

void Communicator::reduce_scatter_block(const void* sendbuf, void* recvbuf,
                                        int recvcount, const Datatype& dt,
                                        const Op& op) const {
  const auto& s = coll_state(state_);
  const int n = s->size();
  std::vector<std::byte> full(nbytes(recvcount, dt) *
                              static_cast<std::size_t>(n));
  // MPI_IN_PLACE: the full input vector sits in recvbuf (which must then be
  // size()*recvcount elements); block 0..recvcount is overwritten on return.
  const void* contrib = sendbuf == in_place ? recvbuf : sendbuf;
  reduce(contrib, full.data(), recvcount * n, dt, op, 0);
  scatter(full.data(), recvcount, dt, recvbuf, recvcount, dt, 0);
}

void Communicator::gatherv(const void* sendbuf, int sendcount,
                           const Datatype& sdt, void* recvbuf,
                           const std::vector<int>& recvcounts,
                           const std::vector<int>& displs, const Datatype& rdt,
                           int root) const {
  const auto& s = coll_state(state_);
  check_root(*s, root, "gatherv");
  const int n = s->size();
  if (s->myrank == root &&
      (recvcounts.size() != static_cast<std::size_t>(n) ||
       displs.size() != static_cast<std::size_t>(n))) {
    s->errh.raise(ErrClass::arg, "gatherv counts/displs size mismatch");
  }
  if (sendbuf == in_place && s->myrank != root) {
    s->errh.raise(ErrClass::buffer, "MPI_IN_PLACE gatherv on non-root");
  }
  OBS_SPAN("coll.gatherv", "coll");
  const CollFlow flow("coll.gatherv", 0);
  run(s, rdt, Op::sum(), [&](Sched& sc) {
    if (s->myrank != root) {
      sc.send(root, 0, sendbuf, nbytes(sendcount, sdt));
      return;
    }
    for (int r = 0; r < n; ++r) {
      std::byte* dst = static_cast<std::byte*>(recvbuf) +
                       nbytes(displs[static_cast<std::size_t>(r)], rdt);
      if (r != root) {
        sc.recv(r, 0, dst,
                nbytes(recvcounts[static_cast<std::size_t>(r)], rdt));
      } else if (sendbuf != in_place) {
        sc.copy(dst, sendbuf, nbytes(sendcount, sdt));
      }
    }
  });
}

void Communicator::allgatherv(const void* sendbuf, int sendcount,
                              const Datatype& sdt, void* recvbuf,
                              const std::vector<int>& recvcounts,
                              const std::vector<int>& displs,
                              const Datatype& rdt) const {
  gatherv(sendbuf, sendcount, sdt, recvbuf, recvcounts, displs, rdt, 0);
  std::size_t total_elems = 0;
  for (std::size_t r = 0; r < recvcounts.size(); ++r) {
    total_elems = std::max(
        total_elems, static_cast<std::size_t>(displs[r]) +
                         static_cast<std::size_t>(recvcounts[r]));
  }
  bcast(recvbuf, static_cast<int>(total_elems), rdt, 0);
}

void Communicator::scan(const void* sendbuf, void* recvbuf, int count,
                        const Datatype& dt, const Op& op) const {
  const auto& s = coll_state(state_);
  const std::size_t bytes = nbytes(count, dt);
  OBS_SPAN_ARG("coll.scan", "coll", bytes);
  const CollFlow flow("coll.scan", bytes);
  run(s, dt, op, [&](Sched& sc) {
    const int me = s->myrank;
    if (sendbuf != in_place) {
      sc.copy(recvbuf, sendbuf, bytes);
    }
    if (me > 0) {
      std::byte* prefix = sc.scratch(bytes);
      sc.recv(me - 1, 0, prefix, bytes);
      sc.next();
      sc.reduce(recvbuf, prefix, count);  // prefix op local, folded from left
      sc.copy(recvbuf, prefix, bytes);
    }
    if (me + 1 < s->size()) {
      sc.send(me + 1, 0, recvbuf, bytes);
    }
  });
}

}  // namespace sessmpi
