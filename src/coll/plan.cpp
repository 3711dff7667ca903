// Plan construction (DESIGN.md §13): the topology and flat plans, the
// "coll.algorithm" switch between them, and the registry that hands every
// member of a node the same shared region without a handshake.

#include "sessmpi/coll/plan.hpp"

#include <algorithm>
#include <atomic>
#include <compare>
#include <map>
#include <string>

#include "detail/state.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::coll {

namespace {

std::atomic<bool> g_flat{false};

void ensure_tvars() {
  static const bool once = [] {
    obs::register_cvar(
        "coll.algorithm",
        "collective plan: auto (by node) | flat (every rank its own node); "
        "global, flip only while no collective is in flight",
        [] {
          return std::string(g_flat.load(std::memory_order_relaxed) ? "flat"
                                                                    : "auto");
        },
        [](const std::string& v) {
          if (v != "auto" && v != "flat") {
            return false;
          }
          g_flat.store(v == "flat", std::memory_order_relaxed);
          return true;
        });
    obs::register_pvar_gauge("coll.zero_copy_pct", [] {
      const std::uint64_t shm = base::counters().value("coll.shm_bytes");
      const std::uint64_t wire = base::counters().value("coll.wire_bytes");
      const std::uint64_t total = shm + wire;
      return total == 0 ? std::uint64_t{0} : shm * 100 / total;
    });
    return true;
  }();
  (void)once;
}

// Register eagerly as well, so tools (and tests) can flip "coll.algorithm"
// before the first collective runs. The obs registry is a function-local
// static, so this is safe under any static-init order.
const bool g_tvars_eager = (ensure_tvars(), true);

/// One region per node per communicator. Sessions-derived communicators
/// key by exCID (globally agreed, unique per live comm); World-model and
/// consensus communicators key by local CID, which is symmetric across
/// members by construction, and whose slot cannot be recycled until every
/// member freed the previous communicator — at which point the old region's
/// last strong reference is gone and its weak entry has expired, so
/// aliasing is impossible.
struct RegionKey {
  int node = 0;
  std::uint64_t excid_hi = 0;
  std::uint64_t excid_lo = 0;
  std::uint32_t cid = 0;
  friend auto operator<=>(const RegionKey&, const RegionKey&) = default;
};

struct RegionRegistry {
  std::map<RegionKey, std::weak_ptr<NodeShared>> regions;
  std::size_t sweep_at = 64;  ///< sweep dead entries once this many exist
};

/// Attach to (creating on demand) the shared region for `key`. The registry
/// lives in the cluster's opaque coll_arena slot and holds only weak
/// references: regions die with the last attached plan, like real shm
/// segments unmapped by their final process.
std::shared_ptr<NodeShared> attach_region(
    sim::Cluster& cluster, const RegionKey& key,
    const std::vector<base::WaitWord*>& words) {
  std::lock_guard lock(cluster.coll_arena_mu);
  if (!cluster.coll_arena) {
    cluster.coll_arena = std::make_shared<RegionRegistry>();
  }
  auto& reg = *std::static_pointer_cast<RegionRegistry>(cluster.coll_arena);
  // Sweep entries whose region died with its last communicator, so a
  // long-lived cluster churning communicators stays bounded. Sweeping only
  // when the registry doubled keeps an attach amortized O(log regions).
  if (reg.regions.size() >= reg.sweep_at) {
    std::erase_if(reg.regions,
                  [](const auto& kv) { return kv.second.expired(); });
    reg.sweep_at = std::max<std::size_t>(64, 2 * reg.regions.size());
  }
  std::weak_ptr<NodeShared>& wk = reg.regions[key];
  if (auto live = wk.lock()) {
    return live;
  }
  auto fresh = std::make_shared<NodeShared>(words);
  wk = fresh;
  return fresh;
}

/// Lay the communicator's ranks out by hosting node, or with `flat` put
/// every rank on a node of its own. O(nodes + ppn) for a sorted group.
std::shared_ptr<Plan> build(detail::ProcState& ps, const detail::CommState& s,
                            bool flat) {
  const base::Topology& topo = ps.proc.cluster().topology();
  auto plan = std::make_shared<Plan>();
  const int n = s.size();
  plan->nranks = n;
  plan->myrank = s.myrank;
  plan->layout = flat ? base::NodeLayout::flat(n)
                      : base::NodeLayout(s.grp.members(), topo, s.grp.sorted());
  const base::NodeLayout& lay = plan->layout;
  plan->leaders.reserve(static_cast<std::size_t>(lay.nodes()));
  for (int node = 0; node < lay.nodes(); ++node) {
    plan->leaders.push_back(lay.leader(node));
    plan->multi_member = plan->multi_member || lay.node_size(node) > 1;
  }
  plan->my_node = lay.node_of(s.myrank);
  plan->my_slot = lay.slot_of(s.myrank);
  plan->my_members = lay.members_of(plan->my_node);
  const std::vector<int>& mine = plan->my_members;
  plan->on_node = static_cast<int>(mine.size());
  plan->i_am_leader = mine.front() == s.myrank;

  // Socket grouping of my node's members: the intra-node fold order.
  std::map<int, std::vector<int>> by_socket;
  for (int m : mine) {
    by_socket[topo.socket_of(s.global_of(m))].push_back(m);
    plan->my_node_globals.push_back(s.global_of(m));
  }
  for (auto& [sock, members] : by_socket) {
    plan->my_sockets.push_back(std::move(members));
  }
  plan->depth = std::max(1, (plan->nodes() > 1 ? 1 : 0) +
                                (plan->multi_member ? 1 : 0) +
                                (plan->my_sockets.size() > 1 ? 1 : 0));

  if (plan->on_node > 1) {
    RegionKey key;
    key.node = lay.node_id(plan->my_node);
    if (s.uses_excid) {
      key.excid_hi = s.excid_space.id().hi;
      key.excid_lo = s.excid_space.id().lo;
    } else {
      key.cid = s.cid;
    }
    std::vector<base::WaitWord*> words;  // by slot, as my_node_globals
    for (base::Rank g : plan->my_node_globals) {
      words.push_back(&ps.proc.cluster().fabric().endpoint(g).inbox().word());
    }
    plan->region = attach_region(ps.proc.cluster(), key, words);
  }

  static const auto c_builds = base::counter("coll.plan_builds");
  c_builds.add();
  static obs::Histogram& depth_hist = obs::histogram("coll.tree_depth");
  depth_hist.record(static_cast<std::uint64_t>(plan->depth));
  return plan;
}

}  // namespace

std::shared_ptr<const Plan> plan_for(
    detail::ProcState& ps, const std::shared_ptr<detail::CommState>& s) {
  ensure_tvars();
  std::lock_guard lock(ps.mu);
  if (!s->coll_plan) {
    s->coll_plan = build(ps, *s, false);
  }
  auto plan = std::static_pointer_cast<Plan>(s->coll_plan);
  if (!g_flat.load(std::memory_order_relaxed)) {
    return plan;
  }
  if (!plan->flat_plan) {
    plan->flat_plan = build(ps, *s, true);
  }
  return plan->flat_plan;
}

}  // namespace sessmpi::coll
