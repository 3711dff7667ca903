#pragma once

// Internal per-process MPI state. One ProcState hangs off each simulated
// process; it owns the ob1-style PML tables (local-CID communicator array,
// exCID hash, rendezvous token maps, matching queues), the session/world
// bookkeeping, and the progress engine.
//
// Thread-safety: a process may run several sessions from several threads
// (the Sessions motivation), so all table mutations and matching happen
// under a per-process recursive mutex. Blocking waits release the mutex
// while parked on the endpoint inbox.

#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sessmpi/base/result.hpp"
#include "sessmpi/base/slot_allocator.hpp"
#include "sessmpi/comm.hpp"
#include "sessmpi/constants.hpp"
#include "sessmpi/excid.hpp"
#include "sessmpi/fabric/fabric.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/session.hpp"
#include "sessmpi/sim/cluster.hpp"

namespace sessmpi::detail {

struct CommState;
struct ProcState;
struct NbcOp;

struct RequestImpl {
  enum class Kind : std::uint8_t { send_eager, send_sync, send_rndv, recv, nbc };

  Kind kind = Kind::send_eager;
  ProcState* ps = nullptr;
  CommState* comm = nullptr;
  std::atomic<bool> complete{false};
  Status status{};

  /// The one peer (comm rank) and tag of the operation: a send's
  /// destination and tag; a receive's posted source and tag, overwritten
  /// with the matched sender's when a rendezvous RTS matches it (the data
  /// completes it later). A failure or revocation finishes a pending
  /// request with exactly these (ProcState::fail_pending_locked).
  int peer = any_source;
  int tag = any_tag;

  // Receive bookkeeping.
  void* buf = nullptr;
  int capacity = 0;  ///< max elements
  std::optional<Datatype> dt;

  // Send bookkeeping (rendezvous payload staged until CTS; sync token).
  fabric::Payload staged;
  std::uint64_t token = 0;

  /// Monotonic posting order within the owning comm (CommState stamp
  /// counter); bin-vs-wildcard match arbitration compares these.
  std::uint64_t post_stamp = 0;

  // Nonblocking-collective schedule (src/coll).
  std::unique_ptr<NbcOp> nbc;

  void finish(Status st) {
    status = st;
    complete.store(true, std::memory_order_release);
  }
  [[nodiscard]] bool done() const noexcept {
    return complete.load(std::memory_order_acquire);
  }
};

using RequestPtr = std::shared_ptr<RequestImpl>;

/// A nonblocking collective as the progress engine sees it: a schedule
/// (src/coll). Both calls run with mu held. advance() returns true once it
/// finished the request; fail() aborts the schedule with `cls`, retiring
/// the receives it posted, and finishes the request (the revoke scrub).
struct NbcOp {
  NbcOp() = default;
  NbcOp(const NbcOp&) = delete;
  NbcOp& operator=(const NbcOp&) = delete;
  virtual ~NbcOp() = default;
  virtual bool advance(RequestImpl& req) = 0;
  virtual void fail(RequestImpl& req, ErrClass cls) = 0;
};

// ---------------------------------------------------------------------------
// O(1) matching structures (DESIGN.md §12)
// ---------------------------------------------------------------------------
//
// Both queues replace the historical single posting-ordered deque with
// per-source bins: a deque per exact tag plus (posted side) a per-source
// any-tag deque, and a structurally identical wildcard bin for ANY_SOURCE
// posts. Entries carry a monotonic stamp (CommState::next_match_stamp)
// assigned in posting/arrival order; matching takes the minimum stamp
// across the (at most four) candidate queue heads, which is equivalent to
// scanning one posting-ordered list — every matching entry lives in
// exactly one candidate queue and each queue is stamp-sorted, so the min
// over heads is the global earliest match. Expected-depth matching drops
// from O(posted) to O(1) amortized; wildcard arbitration touches only
// queue *heads*, never every entry. take_match/peek_match live in pml.cpp
// so they can feed the pml.match_bin_hits / pml.wildcard_scans counters.

/// Posted receives, binned by source rank and tag.
class PostedQueues {
 public:
  /// `req->post_stamp` must be assigned (monotonic per comm) beforehand.
  void insert(const RequestPtr& req);

  /// Remove and return the earliest-posted request matching an arrival from
  /// comm rank `src` with tag `tag`, or nullptr. O(1): compares the stamps
  /// of up to four candidate queue heads (exact/any-tag x binned/wildcard).
  RequestPtr take_match(int src, int tag);

  /// Remove every request satisfying `pred` (relative order preserved).
  template <class Pred>
  void erase_if(Pred&& pred) {
    for (auto bit = bins_.begin(); bit != bins_.end();) {
      prune_bin(bit->second, pred);
      bit = bit->second.empty() ? bins_.erase(bit) : std::next(bit);
    }
    prune_bin(wildcard_, pred);
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Bin {
    std::unordered_map<int, std::deque<RequestPtr>> by_tag;  ///< exact tag
    std::deque<RequestPtr> any_tag;                          ///< ANY_TAG posts
    [[nodiscard]] bool empty() const noexcept {
      return by_tag.empty() && any_tag.empty();
    }
  };

  template <class Pred>
  void prune_bin(Bin& bin, Pred& pred) {
    for (auto tit = bin.by_tag.begin(); tit != bin.by_tag.end();) {
      size_ -= std::erase_if(tit->second, pred);
      tit = tit->second.empty() ? bin.by_tag.erase(tit) : std::next(tit);
    }
    size_ -= std::erase_if(bin.any_tag, pred);
  }

  std::unordered_map<int, Bin> bins_;  ///< keyed by source comm rank
  Bin wildcard_;                       ///< ANY_SOURCE posts
  std::size_t size_ = 0;
};

/// Unmatched arrivals, binned by source rank and (exact) tag.
class UnexpectedQueues {
 public:
  struct Stamped {
    fabric::Packet pkt;
    std::uint64_t stamp = 0;  ///< arrival order within the comm
  };

  void insert(fabric::Packet&& pkt, std::uint64_t stamp);

  /// Remove and return the earliest-arrived packet a receive posted as
  /// (src, tag) would match; nullopt if none.
  std::optional<fabric::Packet> take_match(int src, int tag);

  /// Earliest-arrived matching packet without removing it (probe/iprobe).
  [[nodiscard]] const fabric::Packet* peek_match(int src, int tag) const;

  /// Remove every packet satisfying `pred` (relative order preserved).
  template <class Pred>
  void erase_if(Pred&& pred) {
    for (auto bit = bins_.begin(); bit != bins_.end();) {
      Bin& bin = bit->second;
      for (auto tit = bin.by_tag.begin(); tit != bin.by_tag.end();) {
        size_ -= std::erase_if(
            tit->second, [&](const Stamped& s) { return pred(s.pkt); });
        tit = tit->second.empty() ? bin.by_tag.erase(tit) : std::next(tit);
      }
      bit = bin.by_tag.empty() ? bins_.erase(bit) : std::next(bit);
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  struct Bin {
    std::unordered_map<int, std::deque<Stamped>> by_tag;
  };
  using BinMap = std::unordered_map<int, Bin>;

  /// The queue whose head is the earliest-stamped match for (src, tag);
  /// feeds both take (erasing) and peek (const) paths.
  struct Loc {
    BinMap::iterator bin;
    std::unordered_map<int, std::deque<Stamped>>::iterator tq;
  };
  std::optional<Loc> locate_match(int src, int tag);

  BinMap bins_;  ///< keyed by source comm rank
  std::size_t size_ = 0;
};

struct CommState {
  ProcState* ps = nullptr;
  Group grp = Group::empty();
  int myrank = -1;            ///< my rank within grp
  std::uint16_t cid = 0;      ///< local 16-bit array index
  ExCidSpace excid_space = ExCidSpace::builtin(0);
  bool uses_excid = false;    ///< sessions wire protocol (ext header + ACK)
  std::string comm_name;
  Errhandler errh = Errhandler::errors_are_fatal();
  mutable AttributeStore attrs;
  std::uint32_t coll_seq = 0;  ///< collective ordinal (tags derive from it)
  bool freed = false;

  // --- fault tolerance (ULFM-style) ---------------------------------------
  /// revoke() observed: non-FT ops poisoned. Sticky — it never clears, so
  /// a protocol (a checkpoint save) that reads it before committing sees
  /// every revocation that reached this rank by then.
  bool revoked = false;
  std::uint32_t ft_seq = 0;     ///< FT collective ordinal (agree/shrink tags)
  std::uint32_t ckpt_seq = 0;   ///< checkpoint collective ordinal (src/ckpt)
  std::set<int> acked;          ///< comm ranks whose failure was acknowledged

  struct Peer {
    int remote_cid = -1;   ///< peer's local CID once learned (ACK/ext header)
    bool ack_sent = false; ///< we already told this peer our CID
    bool endpoint_resolved = false;  ///< lazy-modex first-contact fetch done
    /// Per-(comm,peer) wire sequence numbers (MatchHeader::seq). The fabric's
    /// reliability sublayer guarantees exactly-once in-order delivery per
    /// (src,dst) flow; the matching engine cross-checks that guarantee by
    /// asserting recv_seq advances by exactly 1 per matched-path arrival
    /// (counter "pml.seq_anomalies" on violation).
    std::uint32_t send_seq = 0;
    std::uint32_t recv_seq = 0;
  };
  /// Sparse peer table keyed by comm rank, populated on first contact. A
  /// 16k-member communicator whose rank only ever talks to a few neighbors
  /// holds a handful of entries — the dense n-entry vector per rank was
  /// O(n^2) memory host-wide, the other half of the full-modex problem.
  std::unordered_map<int, Peer> peers;
  Peer& peer_at(int r) { return peers[r]; }
  [[nodiscard]] const Peer* peer_if(int r) const {
    auto it = peers.find(r);
    return it == peers.end() ? nullptr : &it->second;
  }

  /// Monotonic stamp shared by posted receives and unexpected arrivals
  /// (each structure only ever compares stamps internally).
  std::uint64_t next_match_stamp = 1;
  PostedQueues posted;        ///< posted receives, binned
  UnexpectedQueues unexpected;  ///< unmatched arrivals, binned

  // Wire statistics (Fig. 5 benchmarks read these).
  std::uint64_t ext_headers_sent = 0;
  std::uint64_t fast_headers_sent = 0;

  // --- collective engine (src/coll) ----------------------------------------
  /// Cached topology plan + on-node shared region, both opaque here so core
  /// has no compile-time dependency on coll. Built lazily on the first
  /// collective, dropped on revoke (membership change invalidation) — a
  /// post-shrink communicator is a new CommState and rebuilds from scratch.
  std::shared_ptr<void> coll_plan;

  [[nodiscard]] base::Rank global_of(int commrank) const {
    return grp.global_of(commrank);
  }
  [[nodiscard]] int size() const noexcept { return grp.size(); }
};

struct SessionState {
  ProcState* ps = nullptr;
  int id = 0;
  bool finalized = false;
  ThreadLevel level = ThreadLevel::multiple;
  Info info_obj;  // snapshot of the init info
  Errhandler errh = Errhandler::errors_return();
  mutable AttributeStore attrs;
};

/// Freelist of uniform-size raw blocks recycled across RequestImpl
/// shared_ptr control blocks. std::allocate_shared fuses object + control
/// block into one allocation of a fixed size, so a simple single-size pool
/// removes the per-message make_shared heap churn on the pt2pt path. Held
/// by shared_ptr from both the ProcState and every live Request's deleter,
/// so user-held requests may safely outlive the process they came from.
struct RequestPool {
  static constexpr std::size_t kMaxCached = 4096;
  std::mutex mu;
  std::size_t block_size = 0;  ///< fixed on first allocation
  std::vector<void*> blocks;
  ~RequestPool() {
    for (void* b : blocks) {
      ::operator delete(b);
    }
  }
};

template <class T>
class RequestPoolAlloc {
 public:
  using value_type = T;

  explicit RequestPoolAlloc(std::shared_ptr<RequestPool> pool)
      : pool_(std::move(pool)) {}
  template <class U>
  RequestPoolAlloc(const RequestPoolAlloc<U>& other) : pool_(other.pool_) {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    {
      std::lock_guard lock(pool_->mu);
      if (pool_->block_size == 0) {
        pool_->block_size = bytes;
      }
      if (bytes == pool_->block_size && !pool_->blocks.empty()) {
        void* b = pool_->blocks.back();
        pool_->blocks.pop_back();
        return static_cast<T*>(b);
      }
    }
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    {
      std::lock_guard lock(pool_->mu);
      if (bytes == pool_->block_size &&
          pool_->blocks.size() < RequestPool::kMaxCached) {
        pool_->blocks.push_back(p);
        return;
      }
    }
    ::operator delete(p);
  }

  template <class U>
  [[nodiscard]] bool operator==(const RequestPoolAlloc<U>& other) const noexcept {
    return pool_ == other.pool_;
  }

 private:
  template <class U>
  friend class RequestPoolAlloc;

  std::shared_ptr<RequestPool> pool_;
};

struct ProcState {
  explicit ProcState(sim::Process& p);

  sim::Process& proc;
  base::CostModel cost;
  std::recursive_mutex mu;

  // Configuration.
  CidMethod method = CidMethod::excid;
  bool excid_derive = true;

  // --- PML (ob1) tables ---------------------------------------------------
  base::SlotAllocator cid_alloc{kCidSpace};
  std::vector<std::shared_ptr<CommState>> comm_by_cid;  // grows on demand
  std::unordered_map<ExCid, std::shared_ptr<CommState>, ExCidHash> comm_by_excid;
  std::vector<fabric::Packet> orphans;  ///< ext packets for not-yet-known exCIDs
  std::unordered_map<std::uint64_t, RequestPtr> send_tokens;
  std::map<std::pair<base::Rank, std::uint64_t>, RequestPtr> recv_tokens;
  std::uint64_t next_token = 1;
  std::vector<RequestPtr> nbc_live;
  std::mutex drain_mu;  ///< held by the one thread draining the inbox
  std::uint64_t swept_failures = 0;  ///< Fabric::failures() at the last sweep
  std::shared_ptr<RequestPool> req_pool = std::make_shared<RequestPool>();

  /// Pool-backed replacement for make_shared<RequestImpl>().
  RequestPtr make_request() {
    return std::allocate_shared<RequestImpl>(RequestPoolAlloc<RequestImpl>(req_pool));
  }

  // --- session / world bookkeeping ----------------------------------------
  bool world_init = false;
  std::shared_ptr<CommState> world;
  std::shared_ptr<CommState> self;
  int next_session_id = 1;
  int live_sessions = 0;
  std::uint64_t pgcids = 0;  ///< PGCIDs acquired by this process

  // --- fault tolerance ------------------------------------------------------
  /// Global ranks whose failure was announced through PMIx events (the
  /// fabric's failed flags are the ground truth; this records that the
  /// runtime told *us*, which is what get_failed() reports).
  std::set<base::Rank> failure_notices;

  /// Memoized pset->group resolution (DESIGN.md §15), keyed by the runtime
  /// failure epoch at resolution time: a re-query after a failure rebuilds
  /// (fault-aware membership), steady-state repeats are O(1) and every rank
  /// shares the runtime's single snapshot vector via Group::of_shared.
  std::map<std::string, std::pair<std::uint64_t, Group>> pset_groups;

  // --- observability --------------------------------------------------------
  /// Flight-recorder hook (DESIGN.md §16): dumps this rank's communicator
  /// and in-flight request tables into a postmortem bundle. Registered in
  /// the constructor; the RAII member unregisters at teardown.
  obs::PostmortemSection pm_section;

  // --- access ----------------------------------------------------------------
  /// ProcState of a simulated process (created on demand).
  static ProcState& of(sim::Process& p);
  /// ProcState of the calling rank thread.
  static ProcState& current();
  /// PMIx client (valid while the pmix subsystem is held).
  pmix::PmixClient& pmix();

  // --- lifecycle -----------------------------------------------------------
  void ensure_subsystems_defined();
  /// Acquire the MPI instance (mca -> pmix -> pml -> instance chain).
  void acquire_instance();
  void release_instance();

  // --- progress engine -------------------------------------------------------
  /// One pass: drain the inbox and advance nonblocking collectives. With
  /// `sweep`, or after a failure notice, a pass that drained the inbox also
  /// completes operations pinned on failed peers with rte_proc_failed
  /// (§II-C: a failure must not hang survivors). Returns true if it dispatched a packet or finished a
  /// nonblocking collective; such a pass, and a sweep, notify the rank's
  /// word (the inbox word) so every waiter of the rank re-checks.
  bool progress_pass(bool sweep = false);
  /// Drive progress until `done()` returns true, parked on the rank's word
  /// between passes for at most 5 ms, or 1 ms while `*shm_wait` (the
  /// caller waits on shm state); aborts with Error(proc_aborted) if the
  /// cluster run is aborting.
  void progress_until(const std::function<bool()>& done,
                      const bool* shm_wait = nullptr);
  void dispatch(fabric::Packet&& pkt);

  // --- pt2pt primitives (comm ranks; callers hold no lock) -----------------
  /// Lazy modex (DESIGN.md §15): make sure dst's endpoint blob has been
  /// fetched and cached; first contact pays one dmodex get, repeats are
  /// free. A peer that died before it ever published (negative cache) is
  /// marked failed in the fabric, so the send takes the dead-peer path
  /// (dropped on the wire, swept to rte_proc_failed) instead of hanging.
  void resolve_endpoint(const std::shared_ptr<CommState>& comm, int dst);
  RequestPtr isend_impl(const std::shared_ptr<CommState>& comm, const void* buf,
                        int count, const Datatype& dt, int dst, int tag,
                        bool sync);
  RequestPtr irecv_impl(const std::shared_ptr<CommState>& comm, void* buf,
                        int count, const Datatype& dt, int src, int tag);
  Status blocking_recv(const std::shared_ptr<CommState>& comm, void* buf,
                       int count, const Datatype& dt, int src, int tag);
  void blocking_send(const std::shared_ptr<CommState>& comm, const void* buf,
                     int count, const Datatype& dt, int dst, int tag,
                     bool sync);
  /// Remove any of `reqs` still sitting in `comm`'s posted queue (takes
  /// mu). For callers whose receive buffers are about to go away — a stack
  /// frame being left, or an aborted schedule handing its buffers back: a
  /// late match would write through a dangling pointer.
  void scrub_posted(CommState& comm, const std::vector<RequestPtr>& reqs);

  // --- communicator registration --------------------------------------------
  /// Create and register a CommState. `fixed_cid` pins the local CID (world
  /// builtins, consensus results); otherwise the lowest free slot is used.
  /// `already_claimed` marks a fixed CID the caller reserved beforehand
  /// (the consensus algorithm claims during agreement).
  std::shared_ptr<CommState> register_comm(const Group& grp,
                                           ExCidSpace space, bool uses_excid,
                                           std::optional<std::uint16_t> fixed_cid,
                                           bool already_claimed = false);
  /// register_comm on a fresh PGCID, which every member of `grp` acquires
  /// from the runtime in one collective under the signature `context`.
  /// Returns the acquisition's error class (nothing registered) on failure.
  base::Result<std::shared_ptr<CommState>> register_fresh_comm(
      const Group& grp, const std::string& context);
  void unregister_comm(CommState& comm);

  std::uint64_t new_token_locked() { return next_token++; }

  /// Advance all live nonblocking collectives (mu held by caller). Returns
  /// true if one finished.
  bool advance_nbc_locked();

  /// Revoke `comm` (mu held): mark it, complete every pending non-FT
  /// operation with comm_revoked (fail_pending_locked), and — when `flood`
  /// — reliably broadcast the revocation to all live peers (each receiver
  /// re-floods once, so the wave survives the initiator dying
  /// mid-broadcast). `trace_ctx` is the causal trace context of the
  /// incoming revoke packet (0 when we are the initiator); the re-flood
  /// carries the same id so the whole wave renders as one distributed
  /// trace.
  void revoke_comm_locked(const std::shared_ptr<CommState>& comm, bool flood,
                          std::uint64_t trace_ctx = 0);

 private:
  // Matching internals; all called with mu held.
  /// Complete requests whose specific peer has failed (mu held).
  void sweep_failed_peers_locked();
  /// Finish every pending point-to-point request `pred` selects with
  /// Status{peer, tag, cls} (mu held): posted receives of the live
  /// communicators, sends parked on a CTS or sync ACK (send_tokens), and
  /// matched rendezvous receives waiting on their data (recv_tokens). The
  /// one path by which a revocation or a peer failure ends an operation.
  template <class Pred>
  void fail_pending_locked(ErrClass cls, Pred pred);

  bool match_against_unexpected(CommState& comm, const RequestPtr& req);
  void handle_incoming(const std::shared_ptr<CommState>& comm,
                       fabric::Packet&& pkt);
  void deliver(const RequestPtr& req, fabric::Packet&& pkt);
};

/// Holds the receives a protocol body posts into buffers of its own frame.
/// However the body leaves — return or throw — the destructor takes any
/// still posted off `comm`'s queue (ProcState::scrub_posted), so a late
/// match cannot write through a dangling pointer.
class PostedScrub {
 public:
  PostedScrub(ProcState& ps, CommState& comm) : ps_(ps), comm_(comm) {}
  PostedScrub(const PostedScrub&) = delete;
  PostedScrub& operator=(const PostedScrub&) = delete;
  ~PostedScrub() { ps_.scrub_posted(comm_, reqs_); }

  /// Track `req`; returns it for the caller's own bookkeeping.
  RequestPtr add(RequestPtr req) {
    reqs_.push_back(req);
    return req;
  }

 private:
  ProcState& ps_;
  CommState& comm_;
  std::vector<RequestPtr> reqs_;
};

/// World Process Model object construction/teardown (defined in world.cpp;
/// wired into the "world" subsystem).
void init_world_objects(ProcState& ps);
void teardown_world_objects(ProcState& ps);

/// Tag used for round `round` of internal collective number `seq`.
inline int internal_tag(std::uint32_t seq, int round) {
  return kInternalTagBase - static_cast<int>((seq % (1u << 20)) * 32u) - round;
}

/// Checkpoint-protocol tags (src/ckpt redundancy-set exchange) live
/// between the internal collective range (bottoms out around -33.6M) and
/// the FT range (-268M): isolated from application and collective traffic,
/// but — unlike FT tags — *not* exempt from revoke poisoning: a checkpoint
/// save caught by a revocation must abort, exactly like application
/// traffic.
inline constexpr int kCkptTagBase = -(1 << 27);

/// Tag for sub-step `sub` of checkpoint collective number `seq`. 1024
/// sub-tags per save: sub 0 = size exchange and sub 2 + stripe*set_size +
/// chunk for the redundancy-set chunk traffic (which caps a set at 31
/// members; ckpt::Config keeps k + m <= 30 because a 1-member tail joins
/// the last set). The offset tops out at 2^26 - 1, keeping the whole band
/// above kFtTagBase (-2^28).
inline int ckpt_tag(std::uint32_t seq, int sub) {
  return kCkptTagBase - static_cast<int>((seq % (1u << 16)) * 1024u) - sub;
}

/// FT-protocol tags live far below the internal collective tag range
/// (internal_tag bottoms out around -33.6M; this base is -268M), so
/// agreement/shrink traffic can never cross-match application or internal
/// collective messages. Operations tagged at or below kFtTagBase keep
/// working on a revoked communicator — that is how recovery talks over the
/// wreck, exactly ULFM's carve-out for MPI_Comm_agree/shrink.
inline constexpr int kFtTagBase = -(1 << 28);

/// Tag for sub-step `sub` of FT collective number `seq` on a communicator.
inline int ft_tag(std::uint32_t seq, int sub) {
  return kFtTagBase - static_cast<int>((seq % (1u << 20)) * 64u) - sub;
}

/// True for tags in the FT-protocol space (exempt from revoke poisoning).
inline bool is_ft_tag(int tag) { return tag <= kFtTagBase; }

/// True when `posted_tag`/`posted_src` accept a packet with (src, tag).
inline bool tags_match(int posted_src, int posted_tag, int src, int tag) {
  const bool src_ok = posted_src == any_source || posted_src == src;
  // Wildcard tags never match internal (negative) collective-context tags.
  const bool tag_ok = posted_tag == tag || (posted_tag == any_tag && tag >= 0);
  return src_ok && tag_ok;
}

}  // namespace sessmpi::detail
