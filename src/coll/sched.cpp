// Schedule executor (sched.hpp, DESIGN.md §13).

#include "sched.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

#include "sessmpi/base/stats.hpp"

namespace sessmpi::coll {

using Kind = Step::Kind;

Sched::Sched(const std::shared_ptr<detail::CommState>& s, const Datatype& dt,
             const Op& op)
    : ps_(*s->ps), s_(s), plan_(plan_for(ps_, s)), dt_(dt), op_(op) {
  steps_.reserve(16);
  open();
}

void Sched::open() {
  std::lock_guard lock(ps_.mu);
  seq_ = s_->coll_seq++;
  base_ = (static_cast<std::uint64_t>(seq_) + 1) * NodeShared::kOpStride;
}

std::byte* Sched::scratch(std::size_t bytes) {
  return bufs_.emplace_back(new std::byte[bytes]).get();
}

Step& Sched::add(Kind kind, int peer, const void* src, void* dst,
                 std::size_t bytes) {
  Step& st = steps_.emplace_back();
  st.kind = kind;
  st.peer = peer;
  st.src = static_cast<const std::byte*>(src);
  st.dst = static_cast<std::byte*>(dst);
  st.bytes = bytes;
  return st;
}

void Sched::send(int peer, int round, const void* src, std::size_t bytes) {
  add(Kind::send, peer, src, nullptr, bytes).tag =
      detail::internal_tag(seq_, round);
}

void Sched::recv(int peer, int round, void* dst, std::size_t bytes) {
  add(Kind::recv, peer, nullptr, dst, bytes).tag =
      detail::internal_tag(seq_, round);
}

void Sched::publish(int channel, std::uint64_t ord, const void* src,
                    std::size_t bytes, int readers) {
  if (readers > 0) {
    Step& st = add(Kind::publish, -1, src, nullptr, bytes);
    st.tag = channel;
    st.ord = base_ + ord;
    st.readers = static_cast<std::uint32_t>(readers);
  }
}

Step& Sched::read(int writer, int channel, std::uint64_t ord, void* dst,
                  std::size_t bytes) {
  Step& st = add(Kind::read, writer, nullptr, dst, bytes);
  st.tag = channel;
  st.ord = base_ + ord;
  return st;
}

void Sched::copy(void* dst, const void* src, std::size_t bytes) {
  add(Kind::copy, -1, src, dst, bytes);
}

void Sched::reduce(const void* src, void* dst, int count) {
  add(Kind::reduce, -1, src, dst, 0).count = count;
}

void Sched::drain(int channel) {
  if (plan_->region) {
    add(Kind::drain, -1, nullptr, nullptr, 0).tag = channel;
  }
}

void Sched::next() {
  if (steps_.size() > (ends_.empty() ? 0 : ends_.back())) {
    ends_.push_back(steps_.size());
  }
}

namespace {

/// Leaves a slot's reader window on every exit, a throwing user op included.
struct Leave {
  std::atomic<std::uint32_t>& inside;
  ~Leave() { inside.fetch_sub(1, std::memory_order_release); }
};

}  // namespace

void Sched::run() {
  next();
  // A rank whose part only sends never waits, so it never progresses:
  // dispatch what arrived first, or it would miss a revocation forever.
  ps_.progress_pass();
  // Arrivals, publications and releases for this rank, and failure notices
  // all move its word, which progress_until parks on between polls.
  ps_.progress_until([this] { return poll(); }, &shm_);
  if (error_) {
    std::rethrow_exception(error_);
  }
  if (err_ != ErrClass::success) {
    throw Error(err_, "collective aborted");
  }
}

bool Sched::advance(detail::RequestImpl& req) {
  const bool finished = poll();
  if (finished) {
    Status st;
    st.error = err_;
    req.finish(st);
  }
  return finished;
}

void Sched::fail(detail::RequestImpl& req, ErrClass cls) {
  abort(cls);
  Status st;
  st.error = err_;
  req.finish(st);
}

detail::RequestPtr Sched::launch(std::unique_ptr<Sched> sc) {
  sc->next();
  detail::ProcState& ps = sc->ps_;
  ps.progress_pass();  // as in run()
  detail::RequestPtr req = ps.make_request();
  req->ps = &ps;
  req->comm = sc->s_.get();
  req->kind = detail::RequestImpl::Kind::nbc;
  req->nbc = std::move(sc);
  std::lock_guard lock(ps.mu);
  ps.nbc_live.push_back(req);
  ps.advance_nbc_locked();  // a leaf can fire its first sends right away
  return req;
}

bool Sched::poll() {
  try {
    while (round_ < ends_.size()) {
      const std::size_t end = ends_[round_];
      if (!started_) {
        started_ = true;
        for (std::size_t i = begin_; i < end; ++i) {
          start(steps_[i]);
        }
      }
      shm_ = false;
      bool all = true;
      for (std::size_t i = begin_; i < end; ++i) {
        Step& st = steps_[i];
        st.done = st.done || complete(st);
        all = all && st.done;
      }
      if (!all) {
        liveness();
        return false;
      }
      begin_ = end;
      ++round_;
      started_ = false;
    }
  } catch (const Error& e) {
    abort(e.error_class());
  } catch (...) {
    error_ = std::current_exception();  // e.g. thrown by a user op
    abort(ErrClass::intern);
  }
  shm_ = false;
  return true;
}

void Sched::start(Step& st) {
  const int bytes = static_cast<int>(st.bytes);
  switch (st.kind) {
    case Kind::send: {
      // A send completes locally, so a peer already known dead must be
      // caught here; the peer cannot have finished without this message.
      if (ps_.proc.cluster().fabric().is_failed(s_->global_of(st.peer))) {
        bad_ = st.peer;
        throw Error(ErrClass::rte_proc_failed, "collective peer failed");
      }
      st.req = ps_.isend_impl(s_, st.src, bytes, Datatype::byte(), st.peer,
                              st.tag, false);
      static const auto c_sends = base::counter("coll.wire_sends");
      static const auto c_bytes = base::counter("coll.wire_bytes");
      static const auto c_copies = base::counter("coll.payload_copies");
      c_sends.add();
      c_bytes.add(st.bytes);
      // A payload sent over the fabric to a rank of the same node is the
      // copy the shm path exists to avoid.
      if (ps_.proc.cluster().topology().same_node(ps_.proc.rank(),
                                                  s_->global_of(st.peer))) {
        c_copies.add();
      }
      break;
    }
    case Kind::recv:
      // One byte of capacity on an empty edge, so a marker is not
      // truncated away.
      st.req = ps_.irecv_impl(s_, st.bytes > 0 ? st.dst : &sink_,
                              std::max(bytes, 1), Datatype::byte(), st.peer,
                              st.tag);
      posted_.push_back(st.req);
      break;
    case Kind::copy:
      if (st.bytes > 0) {
        std::memcpy(st.dst, st.src, st.bytes);
      }
      st.done = true;
      break;
    case Kind::reduce:
      op_.apply(st.src, st.dst, st.count, dt_);
      st.done = true;
      break;
    default:
      break;
  }
}

bool Sched::complete(Step& st) {
  const Plan& p = *plan_;
  switch (st.kind) {
    case Kind::send:
    case Kind::recv: {
      if (!st.req->done()) {
        return false;
      }
      // The one poison predicate: an error, or a size other than expected.
      const Status& r = st.req->status;
      if (r.error != ErrClass::success ||
          (st.kind == Kind::recv && r.count_bytes != st.bytes)) {
        bad_ = st.peer;
        throw Error(r.error != ErrClass::success ? r.error
                                                 : ErrClass::rte_proc_failed,
                    "collective peer aborted");
      }
      return true;
    }
    case Kind::publish: {
      Slot& sl = p.region->slot(p.my_slot, st.tag);
      if (sl.readers_left.load(std::memory_order_acquire) != 0) {
        shm_ = true;
        return false;
      }
      sl.src = st.src;
      sl.bytes = st.bytes;
      sl.readers_left.store(st.readers, std::memory_order_relaxed);
      sl.seq.store(st.ord, std::memory_order_release);
      p.region->wake_others(p.my_slot);
      static const auto c_pub = base::counter("coll.shm_publishes");
      c_pub.add();
      return true;
    }
    case Kind::read: {
      Slot& sl = p.region->slot(p.slot_of(st.peer), st.tag);
      if (sl.seq.load(std::memory_order_acquire) != st.ord) {
        shm_ = true;
        return false;
      }
      {
        // Enter, then confirm: an aborting writer withdraws the ordinal and
        // then waits for inside == 0 (Sched::retract).
        sl.inside.fetch_add(1);
        const Leave leave{sl.inside};
        if (sl.seq.load() != st.ord) {
          shm_ = true;
          return false;
        }
        const std::byte* src = sl.src + st.slice * sl.bytes;
        const std::size_t n = std::min(st.bytes, sl.bytes);
        if (st.count > 0) {
          op_.apply(src, st.dst, st.count, dt_);
        } else if (n > 0) {
          std::memcpy(st.dst, src, n);
        }
      }
      if (!st.hold) {
        static const auto c_reads = base::counter("coll.shm_reads");
        static const auto c_bytes = base::counter("coll.shm_bytes");
        c_reads.add();
        c_bytes.add(sl.bytes);
        sl.readers_left.fetch_sub(1, std::memory_order_release);
        p.region->wake(p.slot_of(st.peer));
      }
      return true;
    }
    case Kind::drain:
      if (p.region->slot(p.my_slot, st.tag)
              .readers_left.load(std::memory_order_acquire) != 0) {
        shm_ = true;
        return false;
      }
      return true;
    default:
      return true;
  }
}

void Sched::liveness() {
  sim::Cluster& cl = ps_.proc.cluster();
  if (cl.aborted()) {
    throw Error(ErrClass::proc_aborted, "cluster aborting during collective");
  }
  if (plan_->region && plan_->region->poisoned() != ErrClass::success) {
    throw Error(plan_->region->poisoned(), "collective aborted by on-node peer");
  }
  // Includes this rank: a node kill unwinds its victims here.
  for (base::Rank g : plan_->my_node_globals) {
    if (cl.fabric().is_failed(g)) {
      throw Error(ErrClass::rte_proc_failed, "on-node peer failed");
    }
  }
  // A pending edge to a dead peer fails through the progress engine's
  // sweep, once everything the peer sent before dying was dispatched.
  std::lock_guard lock(ps_.mu);
  if (s_->revoked) {
    throw Error(ErrClass::comm_revoked, "communicator revoked");
  }
}

void Sched::abort(ErrClass cls) {
  err_ = cls;
  if (plan_->region) {
    plan_->region->poison(cls);
    retract();
    static const auto c_poisons = base::counter("coll.poisons");
    c_poisons.add();
  }
  // No late message may land in a buffer the caller gets back.
  ps_.scrub_posted(*s_, posted_);
  if (cls == ErrClass::comm_revoked) {
    return;  // a revocation floods itself
  }
  fabric::Fabric& fab = ps_.proc.cluster().fabric();
  std::vector<int> told{bad_};
  for (std::size_t i = begin_; i < steps_.size(); ++i) {
    const Step& st = steps_[i];
    if (st.kind != Kind::send || st.req ||
        std::find(told.begin(), told.end(), st.peer) != told.end() ||
        fab.is_failed(s_->global_of(st.peer))) {
      continue;
    }
    told.push_back(st.peer);
    static constexpr std::byte kMarker{1};
    try {
      ps_.isend_impl(s_, &kMarker, st.bytes == 0 ? 1 : 0, Datatype::byte(),
                     st.peer, st.tag, false);
    } catch (const Error&) {
      // The peer or the communicator went away meanwhile: nothing to tell.
    }
  }
}

void Sched::retract() {
  // The caller may free a published buffer (or this schedule's scratch) as
  // soon as the schedule ends, and the readers of a publication may never
  // come to release it: withdraw each one still live, then wait out the
  // readers inside it. A reader's window holds no wait, so this is short.
  for (const Step& st : steps_) {
    if (st.kind != Kind::publish || !st.done) {
      continue;
    }
    Slot& sl = plan_->region->slot(plan_->my_slot, st.tag);
    std::uint64_t mine = st.ord;
    if (sl.seq.compare_exchange_strong(mine, 0)) {
      while (sl.inside.load() != 0) {
        std::this_thread::yield();
      }
    }
  }
}

}  // namespace sessmpi::coll
