#pragma once

// PRRTE-like distributed virtual machine: owns the allocation-wide PMIx
// runtime, defines the default and site-specific process sets, and models
// the runtime-side costs of bringing MPI processes up — in particular the
// slow NFS-mounted component (MCA) load the paper identifies as the main
// contributor to absolute MPI_Init cost. Components are loaded once per node
// per process lifetime: the first process to need them pays the NFS cost
// while its node-mates block on the same load.

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sessmpi/base/cost_model.hpp"
#include "sessmpi/base/topology.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/pmix/runtime.hpp"
#include "sessmpi/prte/simfs.hpp"

namespace sessmpi::prte {

struct JobSpec {
  base::Topology topo;
  base::CostModel cost = base::CostModel::calibrated();
  /// Site-specific psets (name -> members), in addition to mpi://world.
  std::vector<std::pair<std::string, std::vector<pmix::ProcId>>> extra_psets;
};

class Dvm {
 public:
  explicit Dvm(JobSpec spec);

  Dvm(const Dvm&) = delete;
  Dvm& operator=(const Dvm&) = delete;

  [[nodiscard]] pmix::PmixRuntime& pmix() noexcept { return pmix_; }
  [[nodiscard]] const base::Topology& topology() const noexcept {
    return spec_.topo;
  }
  [[nodiscard]] const base::CostModel& cost() const noexcept {
    return spec_.cost;
  }

  /// Load MPI component libraries on `node` (NFS model). Idempotent per
  /// node; concurrent callers on the same node block until the load
  /// completes. Returns true if this call performed the load.
  bool load_components(int node);
  [[nodiscard]] bool components_loaded(int node) const;

  /// Runtime attach performed by every process at launch (prun/prte).
  void attach_process(pmix::ProcId proc);

  /// Define an additional pset at runtime (resource-manager action).
  void define_pset(const std::string& name, std::vector<pmix::ProcId> members);

  /// Resource-manager view of a node crash: every process hosted on `node`
  /// is reported failed to the PMIx runtime (the daemon network notices a
  /// dead node, not individual procs).
  void notify_node_failed(int node);

  /// Shared simulated filesystem (backs MPI_File).
  [[nodiscard]] SimFs& fs() noexcept { return fs_; }

 private:
  SimFs fs_;
  JobSpec spec_;
  pmix::PmixRuntime pmix_;
  struct NodeLoad {
    /// 0 = unloaded, 1 = a process is loading, 2 = loaded.
    std::atomic<int> state{0};
    base::WaitWord loaded;  ///< notified when state reaches 2
  };
  std::vector<std::unique_ptr<NodeLoad>> node_loads_;
};

}  // namespace sessmpi::prte
