#include "sessmpi/comm.hpp"

#include <algorithm>

#include "detail/cid.hpp"
#include "detail/state.hpp"
#include "sessmpi/obs/trace.hpp"

namespace sessmpi {

using detail::CommState;
using detail::ProcState;

Communicator detail_wrap(std::shared_ptr<detail::CommState> state) {
  return Communicator{std::move(state)};
}

const std::shared_ptr<detail::CommState>& detail_unwrap(
    const Communicator& comm) {
  return comm.state_;
}

namespace {

/// Validated access to the underlying state.
const std::shared_ptr<CommState>& checked(
    const std::shared_ptr<CommState>& s) {
  if (!s) {
    throw Error(ErrClass::comm, "null communicator handle");
  }
  if (s->freed) {
    throw Error(ErrClass::comm, "operation on freed communicator");
  }
  return s;
}

/// A communicator over `grp` on a fresh PGCID; raises through `errh` when
/// the runtime cannot provide one.
std::shared_ptr<CommState> fresh_comm(ProcState& ps, const Errhandler& errh,
                                      const Group& grp,
                                      const std::string& context) {
  auto comm = ps.register_fresh_comm(grp, context);
  if (!comm.ok()) {
    errh.raise(ErrClass::other,
               "PGCID acquisition failed: " +
                   std::string(err_class_name(comm.error())));
  }
  return std::move(comm.value());
}

/// What probe/iprobe report for a peeked arrival: a rendezvous RTS carries
/// no payload yet, so its count is the size the sender advertised.
Status probe_status(const fabric::Packet& pkt) {
  Status st;
  st.source = pkt.match.src;
  st.tag = pkt.match.tag;
  st.count_bytes = pkt.kind == fabric::PacketKind::rndv_rts ||
                           pkt.kind == fabric::PacketKind::rndv_rts_ext
                       ? pkt.advertised_size
                       : pkt.payload.size();
  return st;
}

std::vector<int> all_ranks(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = i;
  }
  return v;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------------

Communicator Communicator::create_from_group(const Group& group,
                                             const std::string& tag,
                                             const Info& /*info*/,
                                             const Errhandler& errh) {
  ProcState& ps = ProcState::current();
  {
    std::lock_guard lock(ps.mu);
    if (ps.live_sessions == 0) {
      errh.raise(ErrClass::session,
                 "Comm_create_from_group before any initialization");
    }
  }
  if (!group.contains(ps.proc.rank())) {
    errh.raise(ErrClass::group, "calling process not in group");
  }
  OBS_SPAN_ARG("comm.create_from_group", "core", group.size());
  // Fig. 1 path: the runtime (PMIx) provides a fresh PGCID; the exCID is
  // derived locally from it. The string tag keeps concurrent creations from
  // overlapping groups apart.
  auto comm = fresh_comm(ps, errh, group, "cfg:" + tag);
  comm->errh = errh;
  comm->comm_name = "from_group:" + tag;
  return Communicator{std::move(comm)};
}

// ---------------------------------------------------------------------------
// Inquiry
// ---------------------------------------------------------------------------

int Communicator::rank() const { return checked(state_)->myrank; }
int Communicator::size() const { return checked(state_)->grp.size(); }
Group Communicator::group() const { return checked(state_)->grp; }

std::string Communicator::name() const { return checked(state_)->comm_name; }
void Communicator::set_name(const std::string& name) {
  checked(state_)->comm_name = name;
}

std::uint16_t Communicator::cid() const { return checked(state_)->cid; }
ExCid Communicator::excid() const { return checked(state_)->excid_space.id(); }
bool Communicator::uses_excid() const { return checked(state_)->uses_excid; }

int Communicator::handshaked_peers() const {
  const auto& s = checked(state_);
  std::lock_guard lock(s->ps->mu);
  int n = 0;
  for (const auto& [rank, p] : s->peers) {
    if (p.remote_cid >= 0) {
      ++n;
    }
  }
  return n;
}

const Errhandler& Communicator::errhandler() const {
  return checked(state_)->errh;
}
void Communicator::set_errhandler(const Errhandler& eh) {
  checked(state_)->errh = eh;
}
AttributeStore& Communicator::attributes() const {
  return checked(state_)->attrs;
}

// ---------------------------------------------------------------------------
// Point-to-point
// ---------------------------------------------------------------------------

void Communicator::send(const void* buf, int count, const Datatype& dt,
                        int dst, int tag) const {
  const auto& s = checked(state_);
  if (tag < 0) {
    s->errh.raise(ErrClass::tag, "application tags must be >= 0");
  }
  s->ps->blocking_send(s, buf, count, dt, dst, tag, /*sync=*/false);
}

void Communicator::ssend(const void* buf, int count, const Datatype& dt,
                         int dst, int tag) const {
  const auto& s = checked(state_);
  if (tag < 0) {
    s->errh.raise(ErrClass::tag, "application tags must be >= 0");
  }
  s->ps->blocking_send(s, buf, count, dt, dst, tag, /*sync=*/true);
}

Status Communicator::recv(void* buf, int count, const Datatype& dt, int src,
                          int tag) const {
  const auto& s = checked(state_);
  if (tag < 0 && tag != any_tag) {
    s->errh.raise(ErrClass::tag, "application tags must be >= 0");
  }
  Status st = s->ps->blocking_recv(s, buf, count, dt, src, tag);
  if (st.error != ErrClass::success) {
    s->errh.raise(st.error, "receive completed with error");
  }
  return st;
}

Request Communicator::isend(const void* buf, int count, const Datatype& dt,
                            int dst, int tag) const {
  const auto& s = checked(state_);
  if (tag < 0) {
    s->errh.raise(ErrClass::tag, "application tags must be >= 0");
  }
  return Request{s->ps->isend_impl(s, buf, count, dt, dst, tag, false)};
}

Request Communicator::irecv(void* buf, int count, const Datatype& dt, int src,
                            int tag) const {
  const auto& s = checked(state_);
  if (tag < 0 && tag != any_tag) {
    s->errh.raise(ErrClass::tag, "application tags must be >= 0");
  }
  return Request{s->ps->irecv_impl(s, buf, count, dt, src, tag)};
}

Status Communicator::sendrecv(const void* sendbuf, int sendcount,
                              const Datatype& sdt, int dst, int sendtag,
                              void* recvbuf, int recvcount, const Datatype& rdt,
                              int src, int recvtag) const {
  const auto& s = checked(state_);
  auto recv_req = s->ps->irecv_impl(s, recvbuf, recvcount, rdt, src, recvtag);
  auto send_req = s->ps->isend_impl(s, sendbuf, sendcount, sdt, dst, sendtag,
                                    /*sync=*/false);
  s->ps->progress_until(
      [&] { return recv_req->done() && send_req->done(); });
  return recv_req->status;
}

Status Communicator::probe(int src, int tag) const {
  const auto& s = checked(state_);
  ProcState& ps = *s->ps;
  Status st;
  ps.progress_until([&] {
    std::lock_guard lock(ps.mu);
    const fabric::Packet* pkt = s->unexpected.peek_match(src, tag);
    if (pkt == nullptr) {
      return false;
    }
    st = probe_status(*pkt);
    return true;
  });
  return st;
}

bool Communicator::iprobe(int src, int tag, Status* status) const {
  const auto& s = checked(state_);
  ProcState& ps = *s->ps;
  ps.progress_pass();
  std::lock_guard lock(ps.mu);
  const fabric::Packet* pkt = s->unexpected.peek_match(src, tag);
  if (pkt == nullptr) {
    return false;
  }
  if (status != nullptr) {
    *status = probe_status(*pkt);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Derived constructors
// ---------------------------------------------------------------------------

Communicator Communicator::dup() const {
  const auto& s = checked(state_);
  ProcState& ps = *s->ps;

  std::uint32_t seq;
  {
    std::lock_guard lock(ps.mu);
    seq = s->coll_seq++;
  }

  std::shared_ptr<CommState> child;
  if (!s->uses_excid && ps.method == CidMethod::consensus) {
    // Original Open MPI algorithm: agree on a common free array index by
    // repeated allreduce rounds over the parent (paper §III-B2).
    const std::uint16_t cid =
        detail::consensus_cid(ps, s, all_ranks(s->size()),
                              detail::internal_tag(seq, 0));
    child = ps.register_comm(s->grp, ExCidSpace::builtin(0),
                             /*uses_excid=*/false, cid, /*already_claimed=*/true);
  } else {
    // exCID generator path (§III-B3).
    std::optional<ExCidSpace> derived;
    {
      std::lock_guard lock(ps.mu);
      if (ps.excid_derive) {
        derived = s->excid_space.derive();
      }
    }
    if (derived) {
      // Local derivation; one verification allreduce keeps the operation
      // collective and confirms every member derived the same exCID.
      const auto lo = static_cast<std::int64_t>(derived->id().lo);
      auto agreed = detail::subset_allreduce_max2(
          ps, s, all_ranks(s->size()), {lo, -lo}, detail::internal_tag(seq, 0));
      if (agreed[0] != -agreed[1] || agreed[0] != lo) {
        s->errh.raise(ErrClass::intern, "exCID derivation divergence");
      }
      child = ps.register_comm(s->grp, *derived, /*uses_excid=*/true,
                               std::nullopt);
    } else {
      // Subfield space exhausted (or derivation disabled, as in the
      // prototype's measured Fig. 4 path): acquire a fresh PGCID.
      child = fresh_comm(ps, s->errh, s->grp,
                         "dup:" + s->excid_space.id().str() + ":" +
                             std::to_string(seq));
    }
  }
  child->errh = s->errh;
  child->comm_name = s->comm_name + "(dup)";
  s->attrs.copy_to(child->attrs);
  return Communicator{std::move(child)};
}

Communicator Communicator::split(int color, int key) const {
  const auto& s = checked(state_);
  ProcState& ps = *s->ps;
  const int n = s->size();

  // Exchange (color, key) triples.
  std::vector<std::int64_t> mine{color, key, s->myrank};
  std::vector<std::int64_t> all(static_cast<std::size_t>(3 * n));
  allgather(mine.data(), 3, Datatype::int64(), all.data(), 3,
            Datatype::int64());

  // My subgroup, ordered by (key, parent rank).
  struct Entry {
    std::int64_t key;
    std::int64_t rank;
  };
  std::vector<Entry> members;
  for (int i = 0; i < n; ++i) {
    if (all[static_cast<std::size_t>(3 * i)] == color && color >= 0) {
      members.push_back({all[static_cast<std::size_t>(3 * i + 1)],
                         all[static_cast<std::size_t>(3 * i + 2)]});
    }
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return a.key != b.key ? a.key < b.key : a.rank < b.rank;
  });

  std::uint32_t seq;
  {
    std::lock_guard lock(ps.mu);
    seq = s->coll_seq++;
  }

  if (!s->uses_excid && ps.method == CidMethod::consensus) {
    // Everyone (including color<0 processes) joins the consensus over the
    // parent so a single common index is agreed; undefined-color processes
    // release their claim immediately.
    const std::uint16_t cid =
        detail::consensus_cid(ps, s, all_ranks(n), detail::internal_tag(seq, 1));
    if (color < 0) {
      std::lock_guard lock(ps.mu);
      ps.cid_alloc.release(cid);
      return Communicator{};
    }
    std::vector<base::Rank> globals;
    globals.reserve(members.size());
    for (const Entry& e : members) {
      globals.push_back(s->global_of(static_cast<int>(e.rank)));
    }
    auto child = ps.register_comm(Group::of(std::move(globals)),
                                  ExCidSpace::builtin(0), /*uses_excid=*/false,
                                  cid, /*already_claimed=*/true);
    child->errh = s->errh;
    child->comm_name = s->comm_name + "(split:" + std::to_string(color) + ")";
    return Communicator{std::move(child)};
  }

  if (color < 0) {
    return Communicator{};
  }
  std::vector<base::Rank> globals;
  globals.reserve(members.size());
  for (const Entry& e : members) {
    globals.push_back(s->global_of(static_cast<int>(e.rank)));
  }
  auto child = fresh_comm(
      ps, s->errh, Group::of(std::move(globals)),
      "split:" + std::to_string(color) + ":" + std::to_string(seq));
  child->errh = s->errh;
  child->comm_name = s->comm_name + "(split:" + std::to_string(color) + ")";
  return Communicator{std::move(child)};
}

Communicator Communicator::create_group(const Group& subgroup, int tag) const {
  const auto& s = checked(state_);
  ProcState& ps = *s->ps;
  if (!subgroup.contains(ps.proc.rank())) {
    s->errh.raise(ErrClass::group, "caller not in subgroup");
  }
  // Paper §III-B3: when not all processes participate, a new PGCID is
  // acquired (the consensus fallback would need the full parent).
  auto child =
      fresh_comm(ps, s->errh, subgroup, "ccg:" + std::to_string(tag));
  child->errh = s->errh;
  child->comm_name = s->comm_name + "(create_group)";
  return Communicator{std::move(child)};
}

void Communicator::free() {
  if (!state_) {
    throw Error(ErrClass::comm, "free of null communicator");
  }
  state_->ps->unregister_comm(*state_);
  state_.reset();
}

}  // namespace sessmpi
