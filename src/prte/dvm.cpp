#include "sessmpi/prte/dvm.hpp"

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/error.hpp"
#include "sessmpi/obs/trace.hpp"

namespace sessmpi::prte {

Dvm::Dvm(JobSpec spec) : spec_(std::move(spec)), pmix_(spec_.topo, spec_.cost) {
  if (spec_.topo.num_nodes < 1 || spec_.topo.procs_per_node < 1) {
    throw base::Error(base::ErrClass::rte_bad_param, "empty allocation");
  }
  node_loads_.reserve(static_cast<std::size_t>(spec_.topo.num_nodes));
  for (int n = 0; n < spec_.topo.num_nodes; ++n) {
    node_loads_.push_back(std::make_unique<NodeLoad>());
  }
  // The runtime always provides mpi://world; mpi://self and mpi://shared are
  // resolved per-asker by the PMIx client.
  std::vector<pmix::ProcId> world(static_cast<std::size_t>(spec_.topo.size()));
  for (int i = 0; i < spec_.topo.size(); ++i) {
    world[static_cast<std::size_t>(i)] = i;
  }
  pmix_.psets().define(pmix::kPsetWorld, std::move(world));
  for (auto& [name, members] : spec_.extra_psets) {
    pmix_.psets().define(name, members);
  }
}

bool Dvm::load_components(int node) {
  if (node < 0 || node >= spec_.topo.num_nodes) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid node");
  }
  NodeLoad& nl = *node_loads_[static_cast<std::size_t>(node)];
  // Lock-free once-per-node state machine (0 = unloaded, 1 = loading,
  // 2 = loaded): the old mutex was held across the multi-millisecond NFS
  // delay, which would freeze a cooperative scheduler worker while its
  // node-mates' fibers queue behind it. Now only the first process pays
  // the delay; node-mates park on the flag.
  int expected = 0;
  if (nl.state.compare_exchange_strong(expected, 1,
                                       std::memory_order_acq_rel)) {
    // First process on the node pulls the component stack over NFS; the cost
    // grows with allocation size because every node hits the filer at once.
    OBS_SPAN_ARG("prte.nfs_load", "prte", static_cast<std::uint64_t>(node));
    base::precise_delay(spec_.cost.nfs_load_cost(spec_.topo.num_nodes));
    nl.state.store(2, std::memory_order_release);
    nl.loaded.notify();
    return true;
  }
  base::wait_until(nl.loaded, [&] {
    return nl.state.load(std::memory_order_acquire) == 2;
  });
  return false;
}

bool Dvm::components_loaded(int node) const {
  if (node < 0 || node >= spec_.topo.num_nodes) {
    return false;
  }
  return node_loads_[static_cast<std::size_t>(node)]->state.load(
             std::memory_order_acquire) == 2;
}

void Dvm::attach_process(pmix::ProcId proc) {
  if (!spec_.topo.valid_rank(proc)) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid proc");
  }
  OBS_SPAN_ARG("prte.proc_attach", "prte", static_cast<std::uint64_t>(proc));
  base::precise_delay(spec_.cost.proc_attach_ns);
}

void Dvm::define_pset(const std::string& name,
                      std::vector<pmix::ProcId> members) {
  pmix_.psets().define(name, std::move(members));
}

void Dvm::notify_node_failed(int node) {
  if (node < 0 || node >= spec_.topo.num_nodes) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid node");
  }
  for (pmix::ProcId p = 0; p < spec_.topo.size(); ++p) {
    if (spec_.topo.node_of(p) == node) {
      pmix_.notify_proc_failed(p);
    }
  }
}

}  // namespace sessmpi::prte
