#include "sessmpi/quo/quo.hpp"

#include <atomic>
#include <map>
#include <mutex>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/error.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/pmix/pset.hpp"
#include "sessmpi/sim/cluster.hpp"

namespace sessmpi::quo {

namespace {

/// Sense-reversing barrier shared by node-local processes (they share an
/// address space in the simulator, which is exactly the shared-memory
/// segment QUO 1.3 maps). This is the "low-overhead mechanism" baseline.
class SenseBarrier {
 public:
  void wait(bool* local_sense, int participants) {
    *local_sense = !*local_sense;
    if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants) {
      count_.store(0, std::memory_order_relaxed);
      sense_.store(*local_sense, std::memory_order_release);
      flipped_.notify();
    } else {
      // On the paper's testbed every rank owns a core, so QUO spins; on an
      // oversubscribed simulation host spinning starves the working leader,
      // so the waiters park until the last arriver flips the sense.
      base::wait_until(flipped_, [&] {
        return sense_.load(std::memory_order_acquire) == *local_sense;
      });
    }
  }

 private:
  std::atomic<int> count_{0};
  std::atomic<bool> sense_{false};
  base::WaitWord flipped_;
};

std::mutex g_registry_mu;
std::map<std::uint64_t, std::shared_ptr<SenseBarrier>>& registry() {
  static std::map<std::uint64_t, std::shared_ptr<SenseBarrier>> m;
  return m;
}
std::atomic<std::uint64_t> g_next_id{1};

}  // namespace

struct QuoContext::Impl {
  BarrierKind kind = BarrierKind::baseline;
  std::int64_t quiesce_sleep_ns = 1000;
  Communicator node_comm;        ///< node-local processes (split of app comm)
  std::shared_ptr<SenseBarrier> shm_barrier;
  std::uint64_t shm_barrier_id = 0;
  bool local_sense = false;
  Session session;               ///< sessions flavour only
  Communicator sess_comm;        ///< comm from mpi://shared
  std::vector<BindPolicy> bind_stack;
  std::uint64_t barriers = 0;
};

QuoContext QuoContext::create(const Communicator& app_comm, Options opts) {
  auto impl = std::make_shared<Impl>();
  impl->kind = opts.barrier;
  impl->quiesce_sleep_ns = opts.quiesce_sleep_ns;
  impl->bind_stack.push_back(BindPolicy::process);

  // Node-local communicator: QUO always groups processes by node.
  const int node = sim::Cluster::current().node();
  impl->node_comm = app_comm.split(node, app_comm.rank());

  if (opts.barrier == BarrierKind::baseline) {
    // Leader maps the shared segment; peers attach by id.
    std::uint64_t id = 0;
    if (impl->node_comm.rank() == 0) {
      id = g_next_id.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard lock(g_registry_mu);
      registry()[id] = std::make_shared<SenseBarrier>();
    }
    impl->node_comm.bcast(&id, 1, Datatype::uint64(), 0);
    {
      std::lock_guard lock(g_registry_mu);
      impl->shm_barrier = registry().at(id);
    }
    impl->shm_barrier_id = id;
    // Rendezvous before returning: free() unmaps the segment when the last
    // attached reference drops, so a rank that races ahead to free() must
    // not be able to do that while a peer is still between the bcast and
    // its attach (the peer holds no reference yet and would find the
    // segment gone).
    impl->node_comm.barrier();
  } else {
    // Sessions flavour: QUO_create initializes its own MPI session — the
    // host application is untouched (paper §IV-E, ~20 SLOC integration).
    impl->session = Session::init();
    Group shared = impl->session.group_from_pset(pmix::kPsetShared);
    std::uint64_t tag = 0;
    if (impl->node_comm.rank() == 0) {
      tag = g_next_id.fetch_add(1, std::memory_order_relaxed);
    }
    impl->node_comm.bcast(&tag, 1, Datatype::uint64(), 0);
    impl->sess_comm = Communicator::create_from_group(
        shared, "quo:" + std::to_string(tag));
  }
  return QuoContext{std::move(impl)};
}

namespace {
QuoContext::Impl& checked(const std::shared_ptr<QuoContext::Impl>& impl) {
  if (!impl) {
    throw base::Error(base::ErrClass::other, "null QUO context");
  }
  return *impl;
}
}  // namespace

int QuoContext::rank() const { return checked(impl_).node_comm.rank(); }
int QuoContext::nqids() const { return checked(impl_).node_comm.size(); }
bool QuoContext::is_node_leader() const { return rank() == 0; }

void QuoContext::barrier() {
  Impl& im = checked(impl_);
  if (im.kind == BarrierKind::baseline) {
    im.shm_barrier->wait(&im.local_sense, im.node_comm.size());
  } else {
    // Low-perturbation quiescence: alternate Ibarrier progress probes with
    // parks of up to quiesce_sleep_ns, so quiesced ranks yield the cores to
    // the threaded phase. An arrival for this rank ends a park early.
    base::WaitWord& word = sim::Cluster::current().endpoint().inbox().word();
    Request req = im.sess_comm.ibarrier();
    for (std::uint32_t seen = word.epoch(); !req.test(); seen = word.epoch()) {
      base::wait_until(word, [&] { return word.epoch() != seen; },
                       base::now_ns() + im.quiesce_sleep_ns);
    }
  }
  ++im.barriers;
}

void QuoContext::bind_push(BindPolicy policy) {
  checked(impl_).bind_stack.push_back(policy);
}

void QuoContext::bind_pop() {
  Impl& im = checked(impl_);
  if (im.bind_stack.size() <= 1) {
    throw base::Error(base::ErrClass::other, "QUO bind stack underflow");
  }
  im.bind_stack.pop_back();
}

std::size_t QuoContext::bind_depth() const {
  return checked(impl_).bind_stack.size();
}

BindPolicy QuoContext::current_policy() const {
  return checked(impl_).bind_stack.back();
}

std::uint64_t QuoContext::barriers_done() const { return checked(impl_).barriers; }
BarrierKind QuoContext::kind() const { return checked(impl_).kind; }

void QuoContext::free() {
  Impl& im = checked(impl_);
  if (!im.node_comm.is_null()) {
    im.node_comm.free();
  }
  if (!im.sess_comm.is_null()) {
    im.sess_comm.free();
  }
  if (!im.session.is_null() && !im.session.finalized()) {
    im.session.finalize();
  }
  if (im.shm_barrier && im.shm_barrier_id != 0) {
    im.shm_barrier.reset();
    std::lock_guard lock(g_registry_mu);
    // Last detacher unmaps the segment (shared_ptr count drops to the
    // registry's own reference).
    auto it = registry().find(im.shm_barrier_id);
    if (it != registry().end() && it->second.use_count() == 1) {
      registry().erase(it);
    }
  }
  impl_.reset();
}

}  // namespace sessmpi::quo
