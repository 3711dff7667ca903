#pragma once

// Collective schedules (DESIGN.md §13). Every collective, blocking or not,
// is built as a Sched: rounds of steps over a coll::Plan. A step is a wire
// send or receive, an on-node publish or read of a NodeShared slot, a
// local reduce or copy, or a drain of this rank's own publication. A
// round's steps start in order and complete in any order; the next round
// starts once all of them completed, so a step that needs another step's
// result goes in a later round. A blocking collective runs its schedule
// inline on the caller (run()); a nonblocking one hands it to the progress
// engine (launch()), which advances it from every progress pass.
//
// One poison rule covers every wire edge: a message whose size differs
// from what the receiving step expects is the abort marker (1 byte on an
// edge that expects 0, 0 bytes otherwise). An aborting schedule poisons
// the on-node region, withdraws its live publications and waits out the
// readers inside them, and sends one marker to each peer it still owes a
// send, except the peer whose edge delivered the abort and failed ranks.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "detail/state.hpp"
#include "sessmpi/coll/plan.hpp"

namespace sessmpi::coll {

struct Step {
  enum class Kind : std::uint8_t { send, recv, publish, read, reduce, copy, drain };
  Kind kind = Kind::copy;
  bool hold = false;  ///< read: a read in a later round releases it
  bool done = false;
  int peer = -1;      ///< send/recv partner, or the writer a read waits on
  int tag = 0;        ///< wire tag, or the channel of publish/read/drain
  int count = 0;      ///< reduce, or a read that folds: elements
  std::uint32_t readers = 0;  ///< publish: on-node readers
  std::size_t slice = 0;      ///< read: source offset in published strides
  std::uint64_t ord = 0;      ///< publish/read ordinal
  const std::byte* src = nullptr;
  std::byte* dst = nullptr;
  std::size_t bytes = 0;  ///< payload, or the copy cap of a read
  detail::RequestPtr req;
};

class Sched final : public detail::NbcOp {
 public:
  Sched(const std::shared_ptr<detail::CommState>& s, const Datatype& dt,
        const Op& op);

  // --- building -------------------------------------------------------------
  /// Start the next operation of a chained schedule: a fresh collective
  /// ordinal, hence fresh tags and shm ordinals.
  void open();
  [[nodiscard]] const Plan& plan() const { return *plan_; }
  [[nodiscard]] int me() const { return plan_->myrank; }
  [[nodiscard]] const Datatype& dt() const { return dt_; }
  [[nodiscard]] const Op& op() const { return op_; }
  /// Buffer owned by the schedule, alive until it is destroyed.
  std::byte* scratch(std::size_t bytes);

  /// `round` picks the wire tag within the operation.
  void send(int peer, int round, const void* src, std::size_t bytes);
  void recv(int peer, int round, void* dst, std::size_t bytes);
  /// Expose `src` to `readers` on-node peers; a no-op without readers.
  void publish(int channel, std::uint64_t ord, const void* src,
               std::size_t bytes, int readers);
  /// Copy (or, with count set, fold) the writer's publication into `dst`.
  Step& read(int writer, int channel, std::uint64_t ord, void* dst,
             std::size_t bytes);
  void copy(void* dst, const void* src, std::size_t bytes);
  void reduce(const void* src, void* dst, int count);
  /// Wait until every reader of my publication on `channel` finished.
  void drain(int channel);
  /// Close the current round.
  void next();

  // --- running --------------------------------------------------------------
  /// Blocking: drive to completion on the caller; throws on abort.
  void run();
  bool advance(detail::RequestImpl& req) override;
  void fail(detail::RequestImpl& req, ErrClass cls) override;
  /// Nonblocking: register with the progress engine.
  static detail::RequestPtr launch(std::unique_ptr<Sched> sc);

 private:
  Step& add(Step::Kind kind, int peer, const void* src, void* dst,
            std::size_t bytes);
  bool poll();
  void start(Step& st);
  bool complete(Step& st);
  void liveness();
  void abort(ErrClass cls);
  void retract();

  detail::ProcState& ps_;
  std::shared_ptr<detail::CommState> s_;
  std::shared_ptr<const Plan> plan_;
  Datatype dt_;
  Op op_;
  std::uint32_t seq_ = 0;
  std::uint64_t base_ = 0;  ///< (seq + 1) * kOpStride: this op's ordinals
  std::vector<Step> steps_;
  std::vector<std::size_t> ends_;  ///< one past each round's last step
  std::vector<std::unique_ptr<std::byte[]>> bufs_;
  std::vector<detail::RequestPtr> posted_;  ///< receives an abort retires
  std::size_t round_ = 0;
  std::size_t begin_ = 0;  ///< first step of the current round
  bool started_ = false;
  bool shm_ = false;   ///< the current round waits on a shm step
  int bad_ = -1;  ///< peer whose edge delivered the abort
  ErrClass err_ = ErrClass::success;
  std::exception_ptr error_;  ///< a user op's exception, rethrown by run()
  std::byte sink_{};          ///< landing byte for markers on empty edges
};

}  // namespace sessmpi::coll
