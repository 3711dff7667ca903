#pragma once

// The simulated cluster. One `Process` (an OS thread) per MPI rank; nodes
// are groups of procs_per_node consecutive ranks. The cluster owns the
// PRRTE runtime (and through it PMIx) plus the fabric, launches rank
// threads, and provides the thread-local "current process" that the MPI
// layer binds to — the moral equivalent of a rank's address space.
//
// Substitution note (DESIGN.md §2): the paper runs separate OS processes on
// Cray XC nodes; everything under test here is protocol-level, so threads
// with isolated per-Process state preserve the relevant behaviour.

#include <atomic>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sessmpi/base/subsystem.hpp"
#include "sessmpi/base/topology.hpp"
#include "sessmpi/fabric/fabric.hpp"
#include "sessmpi/pmix/client.hpp"
#include "sessmpi/prte/dvm.hpp"
#include "sessmpi/sim/linkload.hpp"

namespace sessmpi::sim {

using base::Rank;

class Cluster;

/// Per-rank state: identity, endpoint, the per-process subsystem registry
/// (each MPI process has its own init/teardown lifecycle), and an opaque
/// slot where the MPI core attaches its per-process state.
class Process {
 public:
  Process(Cluster& cluster, Rank rank);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] Rank rank() const noexcept { return rank_; }
  [[nodiscard]] int node() const noexcept { return node_; }
  [[nodiscard]] int local_rank() const noexcept { return local_rank_; }
  [[nodiscard]] Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] fabric::Endpoint& endpoint() noexcept { return endpoint_; }
  [[nodiscard]] base::SubsystemRegistry& subsystems() noexcept {
    return subsystems_;
  }

  /// PMIx client, created by the MPI layer's pmix subsystem on first init
  /// and destroyed on final teardown (so a re-init pays PMIx_Init again).
  std::unique_ptr<pmix::PmixClient> pmix_client;

  /// Opaque per-process MPI-core state (set/read via typed helpers in core).
  /// Guard creation with mpi_state_mu: several threads may adopt one rank.
  std::shared_ptr<void> mpi_state;
  std::mutex mpi_state_mu;

  /// Failure injection: announces this process dead through PMIx, then
  /// marks it dead in the fabric.
  void fail();
  [[nodiscard]] bool failed() const;

 private:
  Cluster& cluster_;
  Rank rank_;
  int node_;
  int local_rank_;
  fabric::Endpoint& endpoint_;
  base::SubsystemRegistry subsystems_;
};

class Cluster {
 public:
  struct Options {
    base::Topology topo;
    base::CostModel cost = base::CostModel::calibrated();
    /// Fabric reliable-delivery policy (RTO, backoff, retry cap). Tests
    /// shorten the timescales; the defaults fit the calibrated cost model.
    /// `reliability.cc` sizes the congestion window and the striping rails.
    fabric::ReliabilityConfig reliability;
    std::vector<std::pair<std::string, std::vector<pmix::ProcId>>> extra_psets;
    /// Per-rank simulated clock skew (ns), index = rank; shorter vectors
    /// leave the remaining ranks unskewed. Applied to trace timestamps at
    /// emission (obs::Tracer::set_track_skew_ns), so per-rank trace files
    /// model unsynchronized node clocks; write_rank_traces records the
    /// compensating clock_ns_offset and tools/trace_merge realigns. Every
    /// Cluster construction resets all skews first, so collect + write
    /// traces from a skewed run before constructing the next cluster.
    std::vector<std::int64_t> clock_skew_ns;
  };

  explicit Cluster(Options opts);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] prte::Dvm& dvm() noexcept { return dvm_; }
  [[nodiscard]] fabric::Fabric& fabric() noexcept { return fabric_; }
  /// The link model behind the fabric's CE marker; null when no marker is
  /// installed (one node, or a cost model whose inter-node packets
  /// serialize in zero time — links_can_queue()).
  [[nodiscard]] const LinkLoad* link_load() const noexcept {
    return link_load_.get();
  }
  /// Shared simulated filesystem (the DVM's SimFs) — the spill target for
  /// src/ckpt filesystem-level checkpoints.
  [[nodiscard]] prte::SimFs& fs() noexcept { return dvm_.fs(); }
  [[nodiscard]] const base::Topology& topology() const noexcept {
    return dvm_.topology();
  }
  [[nodiscard]] int size() const noexcept { return topology().size(); }

  [[nodiscard]] Process& process(Rank r);

  /// Launch `rank_main` on every rank (one thread each), join them all, and
  /// rethrow the first rank exception (after marking that rank failed so
  /// survivors' runtime collectives abort instead of deadlocking).
  void run(const std::function<void(Process&)>& rank_main);

  /// Launch on a subset of ranks (the others stay idle). Used by tests.
  void run_on(const std::vector<Rank>& ranks,
              const std::function<void(Process&)>& rank_main);

  /// Failure injection from outside rank threads.
  void fail_rank(Rank r);

  /// Node-failure injection: every rank hosted on `node` dies at once. As
  /// for Process::fail(), the runtime announcement comes first and the
  /// fabric flags flip last, so a survivor that sees a flag flipped never
  /// re-queries a pset or failure list that still holds the dead rank.
  void fail_node(int node);

  /// Set when any rank threw; progress loops poll this to avoid deadlock.
  [[nodiscard]] bool aborted() const noexcept {
    return aborted_.load(std::memory_order_acquire);
  }

  /// The calling thread's Process. Throws Error(intern) when the caller is
  /// not a rank thread.
  static Process& current();
  [[nodiscard]] static Process* current_ptr() noexcept;

  /// Opaque cluster-wide slot for the collective engine's on-node shared
  /// region registry (the sim analogue of a per-node shm segment namespace).
  /// Created on demand by src/coll under coll_arena_mu; dies with the
  /// cluster, exactly like real shm segments die with the node.
  std::shared_ptr<void> coll_arena;
  std::mutex coll_arena_mu;

  friend class ProcessAdopter;

 private:
  prte::Dvm dvm_;
  /// Shared link-occupancy model backing the fabric's CE marker (ECN).
  /// Declared before fabric_ so it destructs after the pump thread joins —
  /// the marker closure dereferences it until the fabric dies.
  std::unique_ptr<LinkLoad> link_load_;
  fabric::Fabric fabric_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::atomic<bool> aborted_{false};
};

/// RAII adoption of a process identity by a helper thread: within the
/// guard's scope, MPI calls on this thread act as `proc`. This is how an
/// application thread (e.g. an OpenMP worker inside an MPI rank) issues MPI
/// calls — the per-session thread-support levels of the Sessions proposal
/// exist exactly for this pattern.
class ProcessAdopter {
 public:
  explicit ProcessAdopter(Process& proc);
  ~ProcessAdopter();
  ProcessAdopter(const ProcessAdopter&) = delete;
  ProcessAdopter& operator=(const ProcessAdopter&) = delete;

 private:
  Process* previous_;
  std::int32_t previous_track_ = -1;
};

}  // namespace sessmpi::sim
