// World Process Model: MPI_Init-style initialization built on top of the
// restructured session machinery (paper §III-B5). init() acquires the
// "world" subsystem, which pulls the full instance chain (MCA component
// load -> PMIx client -> PML) and then constructs the built-in COMM_WORLD /
// COMM_SELF objects with their reserved CIDs.

#include "detail/state.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/mpi.hpp"

namespace sessmpi {

using detail::ProcState;

namespace detail {

void init_world_objects(ProcState& ps) {
  // Endpoint discovery: our blob was published when the pmix subsystem came
  // up (add_procs is local-only in modern Open MPI (§III-B1); the fence is
  // what remains globally synchronizing). The fence is a pure barrier:
  // peer blobs are fetched on first contact (lazy modex, DESIGN.md §15).
  pmix::PmixClient& client = ps.pmix();
  const auto& topo = ps.proc.cluster().topology();
  std::vector<pmix::ProcId> world_procs(static_cast<std::size_t>(topo.size()));
  for (int i = 0; i < topo.size(); ++i) {
    world_procs[static_cast<std::size_t>(i)] = i;
  }
  auto st = client.fence(world_procs);
  if (!st.ok()) {
    throw Error(st.cls, "world modex fence failed");
  }

  std::vector<base::Rank> everyone = world_procs;
  base::precise_delay(ps.cost.world_objects_init_ns);
  ps.world = ps.register_comm(Group::of(everyone), ExCidSpace::builtin(0),
                              /*uses_excid=*/false, std::uint16_t{0});
  ps.world->comm_name = "MPI_COMM_WORLD";
  ps.self = ps.register_comm(Group::of({ps.proc.rank()}),
                             ExCidSpace::builtin(1),
                             /*uses_excid=*/false, std::uint16_t{1});
  ps.self->comm_name = "MPI_COMM_SELF";
  ps.world_init = true;
}

void teardown_world_objects(ProcState& ps) {
  if (ps.world) {
    ps.unregister_comm(*ps.world);
    ps.world.reset();
  }
  if (ps.self) {
    ps.unregister_comm(*ps.self);
    ps.self.reset();
  }
  ps.world_init = false;
}

}  // namespace detail

void init(ThreadLevel /*level*/) {
  ProcState& ps = ProcState::current();
  {
    std::lock_guard lock(ps.mu);
    if (ps.world_init) {
      throw Error(ErrClass::other, "MPI already initialized (world model)");
    }
  }
  ps.proc.subsystems().acquire("world");
  {
    std::lock_guard lock(ps.mu);
    ++ps.live_sessions;  // the internal session backing the world model
  }
}

void finalize() {
  ProcState& ps = ProcState::current();
  {
    std::lock_guard lock(ps.mu);
    if (!ps.world_init) {
      throw Error(ErrClass::other, "MPI not initialized (world model)");
    }
    --ps.live_sessions;
  }
  ps.proc.subsystems().release("world");
}

bool initialized() {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  return ps.world_init;
}

Communicator comm_world() {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  if (!ps.world) {
    throw Error(ErrClass::session, "comm_world before init()");
  }
  return detail_wrap(ps.world);
}

Communicator comm_self() {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  if (!ps.self) {
    throw Error(ErrClass::session, "comm_self before init()");
  }
  return detail_wrap(ps.self);
}

void set_cid_method(CidMethod method) {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  ps.method = method;
}

CidMethod cid_method() {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  return ps.method;
}

void set_excid_derivation(bool enabled) {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  ps.excid_derive = enabled;
}

bool excid_derivation() {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  return ps.excid_derive;
}

std::uint64_t pgcids_acquired() {
  ProcState& ps = ProcState::current();
  std::lock_guard lock(ps.mu);
  return ps.pgcids;
}

}  // namespace sessmpi
