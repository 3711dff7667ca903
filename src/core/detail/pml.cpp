#include <algorithm>
#include <limits>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/trace.hpp"
#include "detail/state.hpp"

namespace sessmpi::detail {

namespace {

/// Packed byte size of `count` elements.
std::size_t packed_bytes(int count, const Datatype& dt) {
  return static_cast<std::size_t>(count) * dt.size();
}

/// Unpacks a matched payload into the receive buffer, truncated to the
/// buffer's capacity; sets `st.count_bytes` and, when cut, `st.error`.
void unpack_payload(const RequestImpl& req, const fabric::Packet& pkt,
                    Status& st) {
  const std::size_t cap = req.dt ? packed_bytes(req.capacity, *req.dt) : 0;
  std::size_t bytes = pkt.payload.size();
  if (bytes > cap) {
    st.error = ErrClass::truncate;
    bytes = cap;
  }
  if (req.dt && bytes > 0) {
    const int elements = static_cast<int>(bytes / req.dt->size());
    req.dt->unpack(pkt.payload.data(), elements, req.buf);
  }
  st.count_bytes = bytes;
}

constexpr std::uint64_t kNoStamp = std::numeric_limits<std::uint64_t>::max();

}  // namespace

// ---------------------------------------------------------------------------
// Match queues (structures in state.hpp; ordering proof in DESIGN.md §12)
// ---------------------------------------------------------------------------

void PostedQueues::insert(const RequestPtr& req) {
  Bin& bin = req->peer == any_source ? wildcard_ : bins_[req->peer];
  if (req->tag == any_tag) {
    bin.any_tag.push_back(req);
  } else {
    bin.by_tag[req->tag].push_back(req);
  }
  ++size_;
}

RequestPtr PostedQueues::take_match(int src, int tag) {
  static const auto bin_hits = base::counter("pml.match_bin_hits");
  static const auto wildcard_scans = base::counter("pml.wildcard_scans");
  if (size_ == 0) {
    return nullptr;
  }

  // Up to four candidate queues can hold a matching request; each is
  // stamp-sorted, so the earliest post overall is the min over their heads.
  std::deque<RequestPtr>* best = nullptr;
  std::uint64_t best_stamp = kNoStamp;
  bool best_in_bins = false;
  std::uint64_t wild_heads = 0;

  const auto consider = [&](std::deque<RequestPtr>* q, bool in_bins) {
    if (q == nullptr || q->empty()) {
      return;
    }
    if (!in_bins) {
      ++wild_heads;
    }
    const std::uint64_t stamp = q->front()->post_stamp;
    if (stamp < best_stamp) {
      best_stamp = stamp;
      best = q;
      best_in_bins = in_bins;
    }
  };

  const auto queues_of = [&](Bin& bin) {
    auto tit = bin.by_tag.find(tag);
    std::deque<RequestPtr>* exact =
        tit == bin.by_tag.end() ? nullptr : &tit->second;
    // ANY_TAG posts never match internal (negative) tags.
    std::deque<RequestPtr>* anytag = tag >= 0 ? &bin.any_tag : nullptr;
    return std::pair{exact, anytag};
  };

  auto bit = bins_.find(src);
  if (bit != bins_.end()) {
    auto [exact, anytag] = queues_of(bit->second);
    consider(exact, /*in_bins=*/true);
    consider(anytag, /*in_bins=*/true);
  }
  {
    auto [exact, anytag] = queues_of(wildcard_);
    consider(exact, /*in_bins=*/false);
    consider(anytag, /*in_bins=*/false);
  }
  if (wild_heads > 0) {
    wildcard_scans.add(wild_heads);
  }
  if (best == nullptr) {
    return nullptr;
  }

  RequestPtr req = std::move(best->front());
  best->pop_front();
  --size_;
  if (best_in_bins) {
    bin_hits.add();
  }
  // Drop emptied exact-tag queues so per-tag map entries don't accumulate.
  Bin& owner = best_in_bins ? bit->second : wildcard_;
  if (best != &owner.any_tag && best->empty()) {
    owner.by_tag.erase(req->tag);
  }
  if (best_in_bins && bit->second.empty()) {
    bins_.erase(bit);
  }
  return req;
}

void UnexpectedQueues::insert(fabric::Packet&& pkt, std::uint64_t stamp) {
  auto& dq = bins_[pkt.match.src].by_tag[pkt.match.tag];
  dq.push_back(Stamped{std::move(pkt), stamp});
  ++size_;
}

std::optional<UnexpectedQueues::Loc> UnexpectedQueues::locate_match(int src,
                                                                    int tag) {
  static const auto wildcard_scans = base::counter("pml.wildcard_scans");
  if (size_ == 0) {
    return std::nullopt;
  }

  std::optional<Loc> best;
  std::uint64_t best_stamp = kNoStamp;
  std::uint64_t scanned = 0;

  const auto consider = [&](BinMap::iterator bin, auto tq) {
    if (tq == bin->second.by_tag.end() || tq->second.empty()) {
      return;
    }
    const std::uint64_t stamp = tq->second.front().stamp;
    if (stamp < best_stamp) {
      best_stamp = stamp;
      best = Loc{bin, tq};
    }
  };

  if (src != any_source && tag != any_tag) {
    // Fully directed: one deque holds every candidate. O(1).
    auto bit = bins_.find(src);
    if (bit != bins_.end()) {
      consider(bit, bit->second.by_tag.find(tag));
    }
    return best;
  }

  // Wildcard receives arbitrate over queue heads: per candidate source,
  // per stored tag for ANY_TAG (negative tags excluded — internal traffic
  // never matches a wildcard).
  const auto consider_bin = [&](BinMap::iterator bit) {
    if (tag != any_tag) {
      ++scanned;
      consider(bit, bit->second.by_tag.find(tag));
      return;
    }
    for (auto tit = bit->second.by_tag.begin(); tit != bit->second.by_tag.end();
         ++tit) {
      if (tit->first < 0) {
        continue;
      }
      ++scanned;
      consider(bit, tit);
    }
  };

  if (src != any_source) {
    auto bit = bins_.find(src);
    if (bit != bins_.end()) {
      consider_bin(bit);
    }
  } else {
    for (auto bit = bins_.begin(); bit != bins_.end(); ++bit) {
      consider_bin(bit);
    }
  }
  if (scanned > 0) {
    wildcard_scans.add(scanned);
  }
  return best;
}

std::optional<fabric::Packet> UnexpectedQueues::take_match(int src, int tag) {
  auto loc = locate_match(src, tag);
  if (!loc) {
    return std::nullopt;
  }
  auto& dq = loc->tq->second;
  fabric::Packet pkt = std::move(dq.front().pkt);
  dq.pop_front();
  --size_;
  if (dq.empty()) {
    loc->bin->second.by_tag.erase(loc->tq);
    if (loc->bin->second.by_tag.empty()) {
      bins_.erase(loc->bin);
    }
  }
  return pkt;
}

const fabric::Packet* UnexpectedQueues::peek_match(int src, int tag) const {
  // locate_match only mutates counters; the structure is untouched.
  auto loc = const_cast<UnexpectedQueues*>(this)->locate_match(src, tag);
  return loc ? &loc->tq->second.front().pkt : nullptr;
}

// ---------------------------------------------------------------------------
// Matching
// ---------------------------------------------------------------------------

bool ProcState::match_against_unexpected(CommState& comm,
                                         const RequestPtr& req) {
  auto pkt = comm.unexpected.take_match(req->peer, req->tag);
  if (!pkt) {
    return false;
  }
  deliver(req, std::move(*pkt));
  return true;
}

void ProcState::handle_incoming(const std::shared_ptr<CommState>& comm,
                                fabric::Packet&& pkt) {
  OBS_SPAN("pml.match", "core");
  // Causal edge in: closes the flow the sender opened in isend_impl, so the
  // merged view draws a send->match arrow across rank tracks. The fabric
  // delivers exactly once (retransmits dedup at the flow layer), so each
  // context yields exactly one flow_end.
  if (pkt.match.trace_ctx != 0) {
    OBS_FLOW_END("pml.msg", "core", pkt.match.trace_ctx);
  }
  // Exactly-once cross-check of the fabric's reliable-delivery guarantee:
  // sends stamp MatchHeader::seq per (comm,peer), so a duplicate or
  // overtaking arrival would show up here as a non-+1 step.
  static const auto seq_anomalies = base::counter("pml.seq_anomalies");
  if (pkt.match.seq != 0) {
    if (pkt.match.src >= 0 && pkt.match.src < comm->size()) {
      auto& peer = comm->peer_at(pkt.match.src);
      if (pkt.match.seq != peer.recv_seq + 1) {
        seq_anomalies.add();
      }
      peer.recv_seq = std::max(peer.recv_seq, pkt.match.seq);
    } else {
      // A source outside the communicator's rank range is corruption, not
      // something to silently skip — it is exactly the kind of anomaly this
      // check exists to surface.
      seq_anomalies.add();
    }
  }
  if (RequestPtr req = comm->posted.take_match(pkt.match.src, pkt.match.tag)) {
    deliver(req, std::move(pkt));
  } else {
    comm->unexpected.insert(std::move(pkt), comm->next_match_stamp++);
  }
}

void ProcState::deliver(const RequestPtr& req, fabric::Packet&& pkt) {
  Status st;
  st.source = pkt.match.src;
  st.tag = pkt.match.tag;

  if (pkt.kind == fabric::PacketKind::rndv_rts ||
      pkt.kind == fabric::PacketKind::rndv_rts_ext) {
    // Rendezvous: remember the request, now naming its matched sender and
    // tag, under (sender, token) and clear the sender to ship the data.
    req->peer = pkt.match.src;
    req->tag = pkt.match.tag;
    recv_tokens[{pkt.src_rank, pkt.token}] = req;
    fabric::Packet cts;
    cts.kind = fabric::PacketKind::rndv_cts;
    cts.src_rank = proc.rank();
    cts.dst_rank = pkt.src_rank;
    cts.token = pkt.token;
    proc.cluster().fabric().send(std::move(cts));
    return;  // completion happens on rndv_data
  }

  unpack_payload(*req, pkt, st);

  if (pkt.token != 0) {
    // Synchronous send: acknowledge the match.
    fabric::Packet ack;
    ack.kind = fabric::PacketKind::sync_ack;
    ack.src_rank = proc.rank();
    ack.dst_rank = pkt.src_rank;
    ack.token = pkt.token;
    proc.cluster().fabric().send(std::move(ack));
  }
  req->finish(st);
}

// ---------------------------------------------------------------------------
// Dispatch (mu held by caller)
// ---------------------------------------------------------------------------

void ProcState::dispatch(fabric::Packet&& pkt) {
  using fabric::PacketKind;
  switch (pkt.kind) {
    case PacketKind::eager:
    case PacketKind::rndv_rts: {
      // Fast path: constant-time lookup in the local communicator array.
      base::precise_delay(cost.match_fast_path_ns);
      std::shared_ptr<CommState> comm =
          pkt.match.cid < comm_by_cid.size() ? comm_by_cid[pkt.match.cid]
                                             : nullptr;
      if (comm && !comm->freed) {
        handle_incoming(comm, std::move(pkt));
      }
      return;
    }
    case PacketKind::eager_ext:
    case PacketKind::rndv_rts_ext: {
      // Extended path: hash the exCID, learn the sender's CID, and ACK with
      // ours (paper §III-B4).
      base::precise_delay(cost.match_ext_lookup_ns);
      const ExCid id{pkt.ext.excid_hi, pkt.ext.excid_lo};
      auto it = comm_by_excid.find(id);
      if (it == comm_by_excid.end()) {
        // Peer finished communicator construction before us: park it.
        orphans.push_back(std::move(pkt));
        return;
      }
      std::shared_ptr<CommState> comm = it->second;
      auto& peer = comm->peer_at(pkt.match.src);
      peer.remote_cid = pkt.ext.sender_cid;
      if (!peer.ack_sent) {
        peer.ack_sent = true;
        fabric::Packet ack;
        ack.kind = PacketKind::cid_ack;
        ack.src_rank = proc.rank();
        ack.dst_rank = pkt.src_rank;
        ack.match.src = comm->myrank;
        ack.ext.excid_hi = id.hi;
        ack.ext.excid_lo = id.lo;
        ack.ext.sender_cid = comm->cid;
        proc.cluster().fabric().send(std::move(ack));
      }
      handle_incoming(comm, std::move(pkt));
      return;
    }
    case PacketKind::cid_ack: {
      OBS_INSTANT("pml.cid_ack", "core");
      const ExCid id{pkt.ext.excid_hi, pkt.ext.excid_lo};
      auto it = comm_by_excid.find(id);
      if (it != comm_by_excid.end()) {
        it->second->peer_at(pkt.match.src).remote_cid = pkt.ext.sender_cid;
      }
      return;
    }
    case PacketKind::rndv_cts: {
      auto it = send_tokens.find(pkt.token);
      if (it == send_tokens.end()) {
        return;
      }
      RequestPtr req = it->second;
      send_tokens.erase(it);
      fabric::Packet data;
      data.kind = PacketKind::rndv_data;
      data.src_rank = proc.rank();
      data.dst_rank = pkt.src_rank;
      data.token = pkt.token;
      data.payload = std::move(req->staged);
      proc.cluster().fabric().send(std::move(data));
      req->finish(Status{});
      return;
    }
    case PacketKind::rndv_data: {
      auto it = recv_tokens.find({pkt.src_rank, pkt.token});
      if (it == recv_tokens.end()) {
        return;
      }
      RequestPtr req = it->second;
      recv_tokens.erase(it);
      Status st;
      unpack_payload(*req, pkt, st);
      st.source = req->peer;
      st.tag = req->tag;
      req->finish(st);
      return;
    }
    case PacketKind::sync_ack: {
      auto it = send_tokens.find(pkt.token);
      if (it != send_tokens.end()) {
        RequestPtr req = it->second;
        send_tokens.erase(it);
        req->finish(Status{});
      }
      return;
    }
    case PacketKind::comm_revoke: {
      // token==1 marks an exCID-addressed revocation (sessions-derived
      // communicator); otherwise the CID is global-by-construction (world
      // builtins, consensus children) and addresses the comm directly.
      std::shared_ptr<CommState> comm;
      if (pkt.token != 0) {
        const ExCid id{pkt.ext.excid_hi, pkt.ext.excid_lo};
        auto it = comm_by_excid.find(id);
        if (it == comm_by_excid.end()) {
          // Revocation can outrun communicator construction: park it; the
          // replay in register_comm delivers it once the comm exists.
          orphans.push_back(std::move(pkt));
          return;
        }
        comm = it->second;
      } else if (pkt.match.cid < comm_by_cid.size()) {
        comm = comm_by_cid[pkt.match.cid];
      }
      if (comm && !comm->freed) {
        revoke_comm_locked(comm, /*flood=*/true, pkt.match.trace_ctx);
      }
      return;
    }
    case PacketKind::flow_ack:
      // Fabric-internal: the reliability layer consumes every flow_ack.
      return;
  }
}

// ---------------------------------------------------------------------------
// Revocation (ULFM)
// ---------------------------------------------------------------------------

void ProcState::revoke_comm_locked(const std::shared_ptr<CommState>& comm,
                                   bool flood, std::uint64_t trace_ctx) {
  if (comm->revoked) {
    return;  // idempotent: also terminates the re-flood recursion
  }
  comm->revoked = true;
  // Membership is about to change (shrink/respawn): drop the cached
  // collective plan + shared region so a survivor cannot rendezvous with a
  // dead member's slot. The post-shrink comm rebuilds lazily.
  comm->coll_plan.reset();
  base::counters().add("ft.comms_revoked");
  OBS_INSTANT_ARG("ft.revoked", "ft", flood ? 1 : 0);
  obs::trigger_postmortem("comm_revoked");
  // One distributed trace per revoke wave: the initiator opens the flow,
  // every hop that re-floods adds a step with the same id, and the flood
  // below stamps that id on each outgoing packet.
  if (obs::Tracer::instance().enabled()) {
    if (trace_ctx != 0) {
      OBS_FLOW_STEP("ft.revoke", "ft", trace_ctx);
    } else {
      trace_ctx = obs::Tracer::next_span_id();
      OBS_FLOW_START("ft.revoke", "ft", trace_ctx, 0);
    }
  }

  // In-flight nonblocking collectives on this comm abort first, retiring
  // exactly the receives their schedules posted. One last advance comes
  // first: a schedule whose steps all completed (say, a leader whose
  // members already read its release) keeps its outcome, as it would have
  // on a blocking call, so the survivors agree on how far they got.
  std::erase_if(nbc_live, [&](const RequestPtr& req) {
    if (req->comm != comm.get()) {
      return false;
    }
    if (!req->nbc->advance(*req)) {
      req->nbc->fail(*req, ErrClass::comm_revoked);
    }
    return true;
  });

  // Every pending operation on this comm, unless it is FT-protocol traffic
  // (agreement and shrink must be able to communicate over the revoked
  // communicator): posted receives, sends parked on a CTS or ACK, and
  // matched rendezvous receives whose data is no longer coming.
  fail_pending_locked(ErrClass::comm_revoked, [&](const RequestImpl& req) {
    return req.comm == comm.get() && !is_ft_tag(req.tag);
  });
  // Unmatched arrivals: any receive that could match them would be poisoned
  // anyway, so drop them before they can satisfy a post-revoke FT wildcard.
  comm->unexpected.erase_if([](const fabric::Packet& p) {
    return !is_ft_tag(p.match.tag);
  });

  if (!flood) {
    return;
  }
  // Reliable broadcast: every rank that observes the revocation re-floods it
  // to all live peers, so the wave completes even if the initiator dies
  // mid-broadcast. Receivers are idempotent (guard above).
  fabric::Fabric& fab = proc.cluster().fabric();
  for (int p = 0; p < comm->size(); ++p) {
    if (p == comm->myrank) {
      continue;
    }
    const base::Rank global = comm->global_of(p);
    if (fab.is_failed(global)) {
      continue;
    }
    fabric::Packet pkt;
    pkt.kind = fabric::PacketKind::comm_revoke;
    pkt.src_rank = proc.rank();
    pkt.dst_rank = global;
    pkt.match.src = comm->myrank;
    if (comm->uses_excid) {
      pkt.token = 1;
      pkt.ext.excid_hi = comm->excid_space.id().hi;
      pkt.ext.excid_lo = comm->excid_space.id().lo;
      pkt.ext.sender_cid = comm->cid;
    } else {
      pkt.match.cid = comm->cid;
    }
    pkt.match.trace_ctx = trace_ctx;
    fab.send(std::move(pkt));
  }
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

namespace {

/// Pipelined wire model (DESIGN.md §12): the sender only charges occupancy
/// (gap + serialization); the one-way latency elapses in flight. The receiver
/// honors it here — a popped packet is not dispatched before its arrival
/// deadline, but packets queued behind it have been overlapping their flight
/// time with ours, which is what lets the windowed message rate approach 1/gap
/// instead of 1/RTT.
void wait_for_arrival(const fabric::Packet& pkt) {
  if (pkt.arrival_ns > 0) {
    base::precise_delay(pkt.arrival_ns - base::now_ns());
  }
}

}  // namespace

bool ProcState::progress_pass(bool sweep) {
  bool busy = false;
  {
    // One drainer at a time, so a flow's packets dispatch in inbox order
    // even when several threads progress this process.
    std::unique_lock drain(drain_mu, std::try_to_lock);
    while (drain.owns_lock()) {
      auto pkt = proc.endpoint().inbox().try_pop();
      if (!pkt) {
        // Drained, after a failure notice: anything still pinned on a dead
        // peer never completes.
        const std::uint64_t failures = proc.cluster().fabric().failures();
        sweep = sweep || failures != swept_failures;
        if (sweep) {
          swept_failures = failures;
          std::lock_guard lock(mu);
          sweep_failed_peers_locked();
        }
        break;
      }
      busy = true;
      wait_for_arrival(*pkt);
      std::lock_guard lock(mu);
      dispatch(std::move(*pkt));
    }
  }
  {
    std::lock_guard lock(mu);
    busy = advance_nbc_locked() || busy;
  }
  if (busy || sweep) {
    // Another thread of this rank, or our own caller, may wait on what
    // this pass completed.
    proc.endpoint().inbox().word().notify();
  }
  return busy;
}

bool ProcState::advance_nbc_locked() {
  return std::erase_if(nbc_live, [](const RequestPtr& req) {
           return req->nbc->advance(*req);
         }) > 0;
}

template <class Pred>
void ProcState::fail_pending_locked(ErrClass cls, Pred pred) {
  const auto fail = [&](const RequestPtr& req) {
    if (!pred(*req)) {
      return false;
    }
    req->finish(Status{req->peer, req->tag, cls});
    return true;
  };
  for (auto& comm : comm_by_cid) {
    if (comm && !comm->freed) {
      comm->posted.erase_if(fail);
    }
  }
  const auto fail_entry = [&](const auto& entry) { return fail(entry.second); };
  std::erase_if(send_tokens, fail_entry);
  std::erase_if(recv_tokens, fail_entry);
}

void ProcState::sweep_failed_peers_locked() {
  // A specific peer that is now dead; a receive posted with any_source
  // names no peer and keeps waiting for the live ones.
  fabric::Fabric& fab = proc.cluster().fabric();
  fail_pending_locked(ErrClass::rte_proc_failed, [&](const RequestImpl& req) {
    return req.peer >= 0 && fab.is_failed(req.comm->global_of(req.peer));
  });
}

void ProcState::progress_until(const std::function<bool()>& done,
                               const bool* shm_wait) {
  base::WaitWord& word = proc.endpoint().inbox().word();
  bool timed_out = false;
  for (;;) {
    const std::uint32_t seen = word.epoch();
    if (done()) {
      return;
    }
    if (proc.cluster().aborted()) {
      throw Error(ErrClass::proc_aborted,
                  "cluster run aborting (a rank threw)");
    }
    // Self-failure unwind: a node kill (Cluster::fail_node) marks this
    // process failed while its thread may be blocked here, mid-operation.
    // Survivors stop talking to a failed rank (the fabric drops packets to
    // it), so without this check the victim would wait forever and hang the
    // join. Throwing lets the rank body observe Process::failed() and stop
    // issuing MPI calls — the cooperative-death contract of the chaos layer.
    if (proc.cluster().fabric().is_failed(proc.rank())) {
      throw Error(ErrClass::rte_proc_failed,
                  "this process was marked failed while blocked");
    }
    // A pass sweeps for operations pinned on dead peers after a failure
    // notice; after a quiet park it sweeps anyway, in case one was posted
    // to a peer already dead.
    if (progress_pass(/*sweep=*/timed_out)) {
      timed_out = false;
      continue;
    }
    // Every arrival, shm publication or failure notice for this rank moves
    // the word; the cap only bounds how late a failure is seen.
    const std::int64_t cap =
        shm_wait != nullptr && *shm_wait ? 1'000'000 : 5'000'000;
    timed_out = !base::wait_until(
        word, [&] { return word.epoch() != seen; }, base::now_ns() + cap);
  }
}

// ---------------------------------------------------------------------------
// Point-to-point primitives
// ---------------------------------------------------------------------------

void ProcState::resolve_endpoint(const std::shared_ptr<CommState>& comm,
                                 int dst) {
  {
    std::lock_guard lock(mu);
    if (comm->peer_at(dst).endpoint_resolved) {
      return;
    }
  }
  const base::Rank global = comm->global_of(dst);
  if (global != proc.rank()) {
    auto v = pmix().peer_info(global, "pml.endpoint");
    if (!v.ok()) {
      if (v.error() == ErrClass::rte_proc_failed) {
        // Negative cache: the peer died before it ever published. Mark it
        // failed in the fabric, so this send and any receive watching the
        // peer complete exactly as for a fabric-detected death.
        proc.cluster().fabric().mark_failed(global);
        return;
      }
      throw Error(v.error(), "peer endpoint resolution failed");
    }
  }
  std::lock_guard lock(mu);
  comm->peer_at(dst).endpoint_resolved = true;
}

RequestPtr ProcState::isend_impl(const std::shared_ptr<CommState>& comm,
                                 const void* buf, int count, const Datatype& dt,
                                 int dst, int tag, bool sync) {
  if (dst < 0 || dst >= comm->size()) {
    throw Error(ErrClass::rank, "send destination out of range");
  }
  // Lazy modex: first contact with this peer fetches its endpoint blob
  // (cache hit ever after).
  resolve_endpoint(comm, dst);
  RequestPtr req = make_request();
  req->ps = this;
  req->comm = comm.get();
  req->peer = dst;
  req->tag = tag;

  const std::size_t bytes = packed_bytes(count, dt);
  OBS_SPAN_ARG("pml.send", "core", bytes);
  // Pack straight into a pooled, refcounted buffer: the fabric's retransmit
  // window and any local delivery then share these bytes instead of copying.
  fabric::Payload payload(bytes);
  if (bytes > 0) {
    dt.pack(buf, count, payload.data());
  }

  fabric::Packet pkt;
  pkt.src_rank = proc.rank();
  pkt.dst_rank = comm->global_of(dst);
  pkt.match.tag = tag;
  pkt.match.src = comm->myrank;

  bool eager = bytes <= kEagerLimit;
  {
    std::lock_guard lock(mu);
    if (comm->revoked && !is_ft_tag(tag)) {
      throw Error(ErrClass::comm_revoked, "communicator has been revoked");
    }
    auto& peer = comm->peer_at(dst);
    pkt.match.seq = ++peer.send_seq;
    if (obs::Tracer::instance().enabled()) {
      // Causal trace context (DESIGN.md §16): inside a collective the
      // engine pins one shared id per op (ScopedFlowContext) so every
      // constituent message joins the op's distributed trace; otherwise
      // each message gets its own span id and opens its own flow here.
      // With tracing off this branch never runs, trace_ctx stays 0, and
      // the packet's modeled wire size is unchanged.
      const std::uint64_t shared = obs::Tracer::flow_context();
      pkt.match.trace_ctx =
          shared != 0 ? shared : obs::Tracer::next_span_id();
      if (shared == 0) {
        OBS_FLOW_START("pml.msg", "core", pkt.match.trace_ctx, bytes);
      }
    }
    const bool need_ext = comm->uses_excid && peer.remote_cid < 0;
    if (need_ext) {
      // First messages on a sessions-derived communicator: prepend the
      // exCID header with our local CID; keep doing so until the ACK lands.
      pkt.kind = eager ? fabric::PacketKind::eager_ext
                       : fabric::PacketKind::rndv_rts_ext;
      pkt.match.cid = comm->cid;
      pkt.ext.excid_hi = comm->excid_space.id().hi;
      pkt.ext.excid_lo = comm->excid_space.id().lo;
      pkt.ext.sender_cid = comm->cid;
      ++comm->ext_headers_sent;
      OBS_INSTANT_ARG("pml.ext_header", "core", comm->ext_headers_sent);
      base::precise_delay(cost.ext_send_overhead_ns);
    } else {
      pkt.kind = eager ? fabric::PacketKind::eager : fabric::PacketKind::rndv_rts;
      pkt.match.cid = comm->uses_excid
                          ? static_cast<std::uint16_t>(peer.remote_cid)
                          : comm->cid;
      ++comm->fast_headers_sent;
    }
    if (eager) {
      pkt.payload = std::move(payload);
      if (sync) {
        req->kind = RequestImpl::Kind::send_sync;
        req->token = new_token_locked();
        pkt.token = req->token;
        send_tokens[req->token] = req;
      } else {
        req->kind = RequestImpl::Kind::send_eager;
      }
    } else {
      req->kind = RequestImpl::Kind::send_rndv;
      req->staged = std::move(payload);
      req->token = new_token_locked();
      pkt.token = req->token;
      pkt.advertised_size = bytes;
      send_tokens[req->token] = req;
    }
  }

  proc.cluster().fabric().send(std::move(pkt));
  if (req->kind == RequestImpl::Kind::send_eager) {
    req->finish(Status{});  // buffered: locally complete once on the wire
  }
  return req;
}

RequestPtr ProcState::irecv_impl(const std::shared_ptr<CommState>& comm,
                                 void* buf, int count, const Datatype& dt,
                                 int src, int tag) {
  if (src != any_source && (src < 0 || src >= comm->size())) {
    throw Error(ErrClass::rank, "receive source out of range");
  }
  RequestPtr req = make_request();
  req->ps = this;
  req->comm = comm.get();
  req->kind = RequestImpl::Kind::recv;
  req->buf = buf;
  req->capacity = count;
  req->dt = dt;
  req->peer = src;
  req->tag = tag;

  OBS_SPAN("pml.recv.post", "core");
  std::lock_guard lock(mu);
  if (comm->revoked && !is_ft_tag(tag)) {
    throw Error(ErrClass::comm_revoked, "communicator has been revoked");
  }
  if (!match_against_unexpected(*comm, req)) {
    req->post_stamp = comm->next_match_stamp++;
    comm->posted.insert(req);
  }
  return req;
}

namespace {

/// Wait out a blocking pt2pt call's request. A failure or revocation
/// surfaces as an Error even on internal (collective) tags, so a dead rank
/// cannot hang survivors inside a collective.
Status block_on(ProcState& ps, const RequestPtr& req, int tag,
                std::int64_t t0, bool recv) {
  ps.progress_until([&] { return req->done(); });
  if (tag >= 0) {
    // User-tag traffic only: the internal tag bands (collectives, ft,
    // ckpt) would swamp the pt2pt latency distributions.
    static obs::Histogram& recv_hist = obs::histogram("pt2pt.recv_ns");
    static obs::Histogram& send_hist = obs::histogram("pt2pt.send_ns");
    (recv ? recv_hist : send_hist)
        .record(static_cast<std::uint64_t>(base::now_ns() - t0));
  }
  const ErrClass e = req->status.error;
  if (e == ErrClass::rte_proc_failed || e == ErrClass::comm_revoked) {
    throw Error(e, std::string(e == ErrClass::rte_proc_failed
                                   ? "peer process failed during "
                                   : "communicator revoked during ") +
                       (recv ? "receive" : "send"));
  }
  return req->status;
}

}  // namespace

void ProcState::scrub_posted(CommState& comm,
                             const std::vector<RequestPtr>& reqs) {
  std::lock_guard lock(mu);
  comm.posted.erase_if([&](const RequestPtr& req) {
    return std::find(reqs.begin(), reqs.end(), req) != reqs.end();
  });
}

Status ProcState::blocking_recv(const std::shared_ptr<CommState>& comm,
                                void* buf, int count, const Datatype& dt,
                                int src, int tag) {
  const std::int64_t t0 = base::now_ns();
  return block_on(*this, irecv_impl(comm, buf, count, dt, src, tag), tag, t0,
                  /*recv=*/true);
}

void ProcState::blocking_send(const std::shared_ptr<CommState>& comm,
                              const void* buf, int count, const Datatype& dt,
                              int dst, int tag, bool sync) {
  const std::int64_t t0 = base::now_ns();
  block_on(*this, isend_impl(comm, buf, count, dt, dst, tag, sync), tag, t0,
           /*recv=*/false);
}

}  // namespace sessmpi::detail
