#pragma once

// SCR-style multilevel checkpoint/restart on top of the fault-tolerance
// layer (src/ft) and the Sessions pset machinery.
//
// Applications register named datasets (a pointer + byte count per rank);
// `save(comm)` then takes a *coordinated* in-memory checkpoint:
//
//   1. snapshot every registered dataset into a staging epoch,
//   2. add redundancy through SCR redundancy sets: the node map places
//      the ranks into sets of (set_data + set_parity) members spread across
//      nodes, each member's blob is split into k chunks and the set
//      computes rotated parity stripes (codec.hpp), so any <= m
//      simultaneous deaths per set restore bitwise from parity at m/k of a
//      full copy's redundancy bytes. The default (1, 1) shape *is* a
//      partner copy on another node (SCR PARTNER); (k, 1) is XOR (RAID-5);
//      no option has to be re-aimed after a shrink,
//   3. fence the *previous* epoch's async filesystem drain, then commit
//      this epoch through an agree()-backed vote: each rank contributes ~0
//      on success or ~1 on any local failure; bit 0 of the AND decides
//      commit/abort *uniformly* across survivors — so a committed epoch N
//      implies epoch N-1 is FS-durable (or known-failed) everywhere,
//   4. publish the committed epoch through PMIx (`ckpt.<name>.epoch`) and
//      (optionally) spill the snapshot to the shared SimFs — SCR's
//      filesystem level, the copy of last resort. The spill is *enqueued*
//      on a background drainer that overlaps compute: chunked
//      fault-injectable writes with exponential-backoff retries, a
//      trailing ".ok" durability marker written only after the final byte,
//      and a sticky first-failure cause. A rank that dies mid-drain leaves
//      no ".ok", so restore falls back to the previous durable epoch.
//
// A revocation of the communicator mid-save invalidates the in-flight
// epoch (save reads the sticky Communicator::is_revoked flag before the
// vote) and the save completes with Error(comm_revoked) on every rank,
// previous epochs intact.
//
// After failures the application shrinks and calls `restore(new_comm)`:
// survivors propose the newest epoch everyone committed (allreduce-min),
// then walk candidates downward until one passes a uniform allreduce-max
// recoverability vote. Survivors reload their own datasets bitwise and
// *adopt* the shards of dead members — decoded from set parity when the
// set lost <= m members (counter ckpt.parity_rebuilds; a (1, 1) copy
// counts here too), else from a durable (".ok"-marked) filesystem spill
// (ckpt.fs_rebuilds). A shard with no surviving copy in any candidate
// epoch fails the restore uniformly on every rank.
//
// Counters (base::counters()): ckpt.saves, ckpt.aborted_saves,
// ckpt.save_bytes, ckpt.redundancy_bytes, ckpt.restores,
// ckpt.restore_bytes, ckpt.parity_rebuilds, ckpt.fs_rebuilds,
// ckpt.spills, ckpt.spill_retries, ckpt.drain_failures.
// Histograms (obs::histogram): ckpt.encode_ns, ckpt.drain_ns.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sessmpi/base/topology.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/ckpt/codec.hpp"
#include "sessmpi/comm.hpp"

namespace sessmpi::prte {
class SimFs;
}

namespace sessmpi::ckpt {

struct Config {
  /// The only scheme; kept for the stack benchmark, which sets it. The
  /// next change to the benchmark removes the field.
  Scheme scheme = Scheme::reed_solomon;
  /// Redundancy-set shape: k data + m parity members per set, placed
  /// across nodes by the node map (codec.hpp). Any <= m simultaneous
  /// failures within one set restore from parity. The default (1, 1) is a
  /// partner copy on another node; m = 0 keeps no in-memory redundancy.
  /// Constraint beyond the codec's: k + m <= 30 (a merged 1-member tail
  /// makes a set of k + m + 1 <= 31, the chunk-exchange tag budget).
  int set_data = 1;
  int set_parity = 1;
  /// Also write each rank's snapshot to the shared SimFs (slowest, most
  /// durable level — survives every in-memory copy dying at once),
  /// through the background drain pipeline (overlaps compute; the next
  /// save's commit vote fences it).
  bool spill_to_fs = false;
  /// SimFs path prefix for spilled snapshots.
  std::string fs_prefix = "/ckpt/";
  /// Committed epochs retained in memory (older ones are pruned).
  std::size_t keep_epochs = 2;
  /// Drain pipeline write granularity (per try_write call).
  std::size_t spill_chunk_bytes = 64 * 1024;
  /// Transient-fault retries per chunk before the drain fails sticky.
  int spill_max_retries = 16;
};

/// A dataset shard recovered on behalf of a dead member.
struct Shard {
  base::Rank owner = -1;   ///< global rank that saved the shard
  std::string dataset;     ///< registered dataset name
  std::vector<std::byte> bytes;
};

struct RestoreResult {
  std::uint64_t epoch = 0;      ///< epoch everyone restored from
  std::vector<Shard> adopted;   ///< shards this rank now holds for the dead
  int from_fs = 0;              ///< adopted shards that came from the spill
  int from_parity = 0;          ///< adopted shards decoded from set parity
};

/// Per-rank checkpoint manager. One instance per rank, persisting across
/// communicator shrinks (the epochs live here, not on the communicator).
/// Not thread-safe: drive it from the owning rank thread (the background
/// drainer synchronizes internally).
class Checkpointer {
 public:
  /// `name` namespaces the PMIx keys and SimFs paths of this checkpoint
  /// set; every participating rank must use the same name and config.
  /// Throws Error(arg) on an invalid erasure-set shape.
  explicit Checkpointer(std::string name, Config cfg = {});

  /// Cancels any in-flight drain (a cooperatively dying rank leaves its
  /// current spill without a ".ok" marker — not durable) and joins the
  /// drainer thread.
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Register (or re-point) a named dataset: `bytes` bytes at `data`,
  /// snapshotted on save and overwritten on restore. The pointer must stay
  /// valid across save/restore calls.
  void register_dataset(const std::string& dataset, void* data,
                        std::size_t bytes);

  /// Coordinated checkpoint over `comm` (collective). Returns the committed
  /// epoch number. Throws Error(comm_revoked) if the communicator is (or
  /// becomes) revoked mid-save, Error(rte_proc_failed) if a member failure
  /// aborts the vote; previous epochs are untouched either way.
  std::uint64_t save(const Communicator& comm);

  /// Collective restore over the (post-shrink) communicator: reload own
  /// datasets from the newest commonly-recoverable epoch and adopt dead
  /// members' shards. Throws Error(arg) when no epoch was ever committed
  /// and Error(rte_not_found) when no candidate epoch is recoverable —
  /// uniformly on every rank.
  RestoreResult restore(const Communicator& comm);

  /// Time-based cadence helper: true when a save is due at `now_ns` by the
  /// planner's interval (planner().effective_interval_ns(); always true
  /// while that is 0, i.e. before an MTBF and a save cost were measured).
  /// Arms the next deadline when it fires.
  [[nodiscard]] bool should_save(std::int64_t now_ns);

  /// Block until every enqueued async spill reaches a terminal state
  /// (durable / failed). Returns true when all pending drains became
  /// durable. save() calls this before the commit vote; call it directly
  /// before a planned death to make the latest epoch FS-durable.
  bool drain_fence();

  /// Sticky first cause of the first failed drain ("" = none yet).
  [[nodiscard]] std::string drain_error() const;

  /// Cumulative ns the drainer spent writing / save() spent blocked in the
  /// pre-vote fence — the bench's overlap metric is 1 - fence/busy.
  [[nodiscard]] std::uint64_t drain_busy_ns() const;
  [[nodiscard]] std::uint64_t drain_fence_wait_ns() const;

  /// Newest epoch this rank committed (0 = none yet).
  [[nodiscard]] std::uint64_t last_committed() const noexcept {
    return last_committed_;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

 private:
  struct Dataset {
    void* data = nullptr;
    std::size_t bytes = 0;
  };
  /// One committed (or staging) checkpoint generation.
  struct Epoch {
    /// My datasets, snapshotted. Keyed by dataset name.
    std::map<std::string, std::vector<std::byte>> own;
    /// Global ranks of the communicator at save time, by comm rank.
    std::vector<base::Rank> members;
    /// Redundancy sets *as saved* (comm ranks of `members`) — restore walks
    /// these, not the current config or communicator.
    std::vector<SetLayout> sets;
    int my_set = 0;  ///< index of this rank's set in `sets`
    int my_idx = 0;  ///< this rank's member index in that set
    std::uint64_t chunk_len = 0;
    /// Serialized-blob size per member of my set (member index order).
    std::vector<std::uint64_t> blob_sizes;
    /// Parity chunks this rank holds, keyed by stripe.
    std::map<int, std::vector<std::byte>> parity;
  };
  /// One queued/in-flight async spill.
  struct DrainJob {
    std::uint64_t epoch = 0;
    std::string path;
    std::vector<std::byte> blob;
    enum class State { staged, draining, durable, failed, cancelled };
    State state = State::staged;
    std::int32_t track = -1;  ///< rank track for span attribution
  };

  [[nodiscard]] std::string fs_path(std::uint64_t epoch,
                                    base::Rank owner) const;
  void spill_async(prte::SimFs& fs, std::uint64_t epoch,
                   std::vector<std::byte> blob, base::Rank my_global);
  void drain_loop();
  DrainJob::State drain_one(const DrainJob& job, std::string& cause);
  void remove_spill(prte::SimFs& fs, std::uint64_t epoch,
                    base::Rank my_global);

  std::string name_;
  Config cfg_;
  std::map<std::string, Dataset> datasets_;  // registration order irrelevant
  std::map<std::uint64_t, Epoch> epochs_;
  std::uint64_t last_committed_ = 0;
  std::int64_t next_due_ns_ = -1;  ///< should_save() deadline (-1 = unarmed)

  // --- async drain pipeline (drainer thread <-> rank thread) ---
  mutable std::mutex dmu_;
  /// Notified after every change to dqueue_, dlive_ or drain_stop_: the
  /// drainer parks on it for work, drain_fence() for an empty dlive_.
  base::WaitWord dword_;
  std::deque<std::shared_ptr<DrainJob>> dqueue_;
  std::vector<std::shared_ptr<DrainJob>> dlive_;  ///< staged + draining
  bool drain_stop_ = false;
  std::string drain_first_cause_;
  std::uint64_t drain_busy_ns_ = 0;
  std::uint64_t drain_fence_wait_ns_ = 0;
  prte::SimFs* drain_fs_ = nullptr;  ///< captured at first async spill
  std::thread drainer_;
};

/// Serialize `{name -> bytes}` into one blob (length-prefixed entries).
std::vector<std::byte> encode_snapshot(
    const std::map<std::string, std::vector<std::byte>>& datasets);
/// Inverse of encode_snapshot. Throws Error(truncate) on a malformed blob.
/// Trailing bytes beyond the last entry (erasure-chunk padding) are
/// ignored.
std::map<std::string, std::vector<std::byte>> decode_snapshot(
    const std::vector<std::byte>& blob);

}  // namespace sessmpi::ckpt
