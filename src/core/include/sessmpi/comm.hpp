#pragma once

// Communicator: the central MPI communication object. Obtainable through the
// World Process Model (comm_world()/comm_self() after init()) or the
// Sessions Process Model (Communicator::create_from_group on a Group taken
// from a session pset) — Figure 1 of the paper.
//
// Point-to-point messaging follows the ob1 design: a 14-byte match header on
// the fast path; sessions-derived communicators prepend the exCID extended
// header until the per-peer CID handshake completes (§III-B4).

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sessmpi/constants.hpp"
#include "sessmpi/datatype.hpp"
#include "sessmpi/errhandler.hpp"
#include "sessmpi/excid.hpp"
#include "sessmpi/group.hpp"
#include "sessmpi/info.hpp"
#include "sessmpi/op.hpp"
#include "sessmpi/request.hpp"
#include "sessmpi/status.hpp"

namespace sessmpi::detail {
struct CommState;
}  // namespace sessmpi::detail

namespace sessmpi {

class AttributeStore;
class Keyval;

class Communicator {
 public:
  /// Null handle; all operations throw Error(comm).
  Communicator() = default;

  /// MPI_Comm_create_from_group (collective over the group's processes):
  /// builds a communicator with no parent, deriving its exCID from a fresh
  /// PMIx PGCID. `tag` disambiguates concurrent creations from overlapping
  /// groups, as in the proposal.
  static Communicator create_from_group(
      const Group& group, const std::string& tag = "",
      const Info& info = Info::null(),
      const Errhandler& errh = Errhandler::errors_are_fatal());

  // --- inquiry ---------------------------------------------------------------
  [[nodiscard]] int rank() const;
  [[nodiscard]] int size() const;
  [[nodiscard]] Group group() const;
  [[nodiscard]] std::string name() const;
  void set_name(const std::string& name);
  [[nodiscard]] bool is_null() const noexcept { return state_ == nullptr; }

  /// Local 16-bit CID (array index) — may differ between processes on
  /// sessions-derived communicators (paper §III-B3).
  [[nodiscard]] std::uint16_t cid() const;
  /// 128-bit extended CID; hi == 0 for World-model built-ins.
  [[nodiscard]] ExCid excid() const;
  /// True when this communicator uses the exCID handshake wire protocol.
  [[nodiscard]] bool uses_excid() const;
  /// Peers (comm ranks) whose local CID we already learned via ACK.
  [[nodiscard]] int handshaked_peers() const;

  // --- error handling / attributes -------------------------------------------
  [[nodiscard]] const Errhandler& errhandler() const;
  void set_errhandler(const Errhandler& eh);
  [[nodiscard]] AttributeStore& attributes() const;

  // --- point-to-point -------------------------------------------------------
  void send(const void* buf, int count, const Datatype& dt, int dst, int tag) const;
  /// Synchronous send: completes only after the receiver matched (MPI_Ssend).
  void ssend(const void* buf, int count, const Datatype& dt, int dst, int tag) const;
  Status recv(void* buf, int count, const Datatype& dt, int src, int tag) const;
  Request isend(const void* buf, int count, const Datatype& dt, int dst,
                int tag) const;
  Request irecv(void* buf, int count, const Datatype& dt, int src, int tag) const;
  Status sendrecv(const void* sendbuf, int sendcount, const Datatype& sdt,
                  int dst, int sendtag, void* recvbuf, int recvcount,
                  const Datatype& rdt, int src, int recvtag) const;
  /// MPI_Probe: block until a matching message is available; do not receive.
  Status probe(int src, int tag) const;
  /// MPI_Iprobe.
  [[nodiscard]] bool iprobe(int src, int tag, Status* status = nullptr) const;

  // Typed conveniences.
  template <typename T>
  void send(std::span<const T> data, int dst, int tag) const {
    send(data.data(), static_cast<int>(data.size()), datatype_of<T>(), dst, tag);
  }
  template <typename T>
  Status recv(std::span<T> data, int src, int tag) const {
    return recv(data.data(), static_cast<int>(data.size()), datatype_of<T>(),
                src, tag);
  }

  // --- collectives ------------------------------------------------------------
  void barrier() const;
  Request ibarrier() const;
  void bcast(void* buf, int count, const Datatype& dt, int root) const;
  /// MPI_Ibcast: the blocking bcast's schedule, advanced by the progress
  /// engine.
  Request ibcast(void* buf, int count, const Datatype& dt, int root) const;
  /// MPI_Iallreduce: the blocking allreduce's schedule, so non-commutative
  /// ops fold in the same strict rank order.
  Request iallreduce(const void* sendbuf, void* recvbuf, int count,
                     const Datatype& dt, const Op& op) const;
  void reduce(const void* sendbuf, void* recvbuf, int count, const Datatype& dt,
              const Op& op, int root) const;
  void allreduce(const void* sendbuf, void* recvbuf, int count,
                 const Datatype& dt, const Op& op) const;
  void gather(const void* sendbuf, int sendcount, const Datatype& sdt,
              void* recvbuf, int recvcount, const Datatype& rdt, int root) const;
  void scatter(const void* sendbuf, int sendcount, const Datatype& sdt,
               void* recvbuf, int recvcount, const Datatype& rdt, int root) const;
  void allgather(const void* sendbuf, int sendcount, const Datatype& sdt,
                 void* recvbuf, int recvcount, const Datatype& rdt) const;
  void alltoall(const void* sendbuf, int sendcount, const Datatype& sdt,
                void* recvbuf, int recvcount, const Datatype& rdt) const;
  void scan(const void* sendbuf, void* recvbuf, int count, const Datatype& dt,
            const Op& op) const;
  /// Exclusive scan: rank r receives the fold of ranks [0, r). recvbuf of
  /// rank 0 is left untouched (MPI_Exscan semantics).
  void exscan(const void* sendbuf, void* recvbuf, int count, const Datatype& dt,
              const Op& op) const;
  /// MPI_Reduce_scatter_block: element-wise reduce of size()*recvcount
  /// elements, block r scattered to rank r.
  void reduce_scatter_block(const void* sendbuf, void* recvbuf, int recvcount,
                            const Datatype& dt, const Op& op) const;
  /// MPI_Gatherv: per-rank receive counts/displacements (in elements).
  void gatherv(const void* sendbuf, int sendcount, const Datatype& sdt,
               void* recvbuf, const std::vector<int>& recvcounts,
               const std::vector<int>& displs, const Datatype& rdt,
               int root) const;
  /// MPI_Allgatherv.
  void allgatherv(const void* sendbuf, int sendcount, const Datatype& sdt,
                  void* recvbuf, const std::vector<int>& recvcounts,
                  const std::vector<int>& displs, const Datatype& rdt) const;

  // --- constructors from this communicator -----------------------------------
  /// MPI_Comm_dup (collective). Under CidMethod::excid the child id derives
  /// from the parent's subfields when possible; under consensus the child's
  /// CID is agreed by repeated allreduce rounds.
  [[nodiscard]] Communicator dup() const;
  /// MPI_Comm_split (collective): same `color` -> same child comm, ranked by
  /// (key, parent rank). Negative color -> no child (returns null handle).
  [[nodiscard]] Communicator split(int color, int key) const;
  /// MPI_Comm_create_group (collective over `subgroup` only).
  [[nodiscard]] Communicator create_group(const Group& subgroup, int tag) const;

  // --- fault tolerance (ULFM-style; implemented by the src/ft library) -------
  /// Comm ranks currently known to have failed (fabric ground truth plus
  /// PMIx failure events delivered to this process). Monotonic.
  [[nodiscard]] std::vector<int> get_failed() const;
  /// Acknowledge every currently-known failed member (MPI_Comm_failure_ack):
  /// acknowledged deaths no longer count as "new" failures for agree().
  /// Returns the comm ranks newly acknowledged by this call.
  std::vector<int> ack_failed() const;
  /// MPIX_Comm_revoke: flood a revocation through the fabric. Every pending
  /// and future non-recovery operation on this communicator — on every
  /// member — completes with ErrClass::comm_revoked. Irreversible.
  void revoke() const;
  /// True once a revocation (local or remote) has been observed.
  [[nodiscard]] bool is_revoked() const;
  /// MPIX_Comm_agree: fault-tolerant agreement. Returns the bitwise AND of
  /// the contributions of the participating live members; all survivors
  /// return the same value even if ranks (including the coordinator) die
  /// mid-agreement. Works on a revoked communicator.
  [[nodiscard]] std::uint64_t agree(std::uint64_t contribution) const;
  /// MPIX_Comm_shrink: collectively build a new communicator over the
  /// surviving members (agree on the survivor set, then drive the regular
  /// exCID construction path over it). Works on a revoked communicator.
  [[nodiscard]] Communicator shrink() const;

  /// MPI_Comm_free: release local resources (attribute delete callbacks run).
  void free();

  friend bool operator==(const Communicator& a, const Communicator& b) {
    return a.state_ == b.state_;
  }

 private:
  friend class Session;
  friend struct detail::CommState;
  friend Communicator detail_wrap(std::shared_ptr<detail::CommState>);
  friend const std::shared_ptr<detail::CommState>& detail_unwrap(
      const Communicator& comm);
  explicit Communicator(std::shared_ptr<detail::CommState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::CommState> state_;
};

/// Internal: wrap a CommState in a public handle (used by the core impl).
Communicator detail_wrap(std::shared_ptr<detail::CommState> state);
/// Internal: access the CommState of a handle (used by Win/File internals
/// that communicate on reserved negative tags).
const std::shared_ptr<detail::CommState>& detail_unwrap(
    const Communicator& comm);

}  // namespace sessmpi
