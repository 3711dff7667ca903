#include "detail/state.hpp"

#include <ostream>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/log.hpp"
#include "sessmpi/obs/trace.hpp"

namespace sessmpi::detail {

namespace {

/// Flight-recorder section body: this rank's communicator table plus the
/// in-flight request maps, as one line of JSON. Runs on the dumping thread
/// while rank threads may still be inside the PML, so it must not block:
/// try_lock succeeds immediately when the dumping thread itself holds
/// ps.mu (recursive — the revoke trigger fires under it) and degrades to a
/// "busy" marker when another thread owns the state.
void dump_proc_state(ProcState& ps, std::ostream& os) {
  std::unique_lock lk(ps.mu, std::try_to_lock);
  if (!lk.owns_lock()) {
    os << "{\"rank\":" << ps.proc.rank() << ",\"skipped\":\"busy\"}";
    return;
  }
  os << "{\"rank\":" << ps.proc.rank() << ",\"comms\":[";
  bool first = true;
  for (const auto& c : ps.comm_by_cid) {
    if (!c || c->freed) continue;
    os << (first ? "" : ",") << "{\"cid\":" << c->cid
       << ",\"size\":" << c->size() << ",\"myrank\":" << c->myrank
       << ",\"revoked\":" << (c->revoked ? "true" : "false")
       << ",\"posted\":" << c->posted.size()
       << ",\"unexpected\":" << c->unexpected.size() << "}";
    first = false;
  }
  os << "],\"send_tokens\":" << ps.send_tokens.size()
     << ",\"recv_tokens\":" << ps.recv_tokens.size()
     << ",\"nbc_live\":" << ps.nbc_live.size()
     << ",\"orphans\":" << ps.orphans.size()
     << ",\"failure_notices\":" << ps.failure_notices.size() << "}";
}

}  // namespace

ProcState::ProcState(sim::Process& p)
    : proc(p), cost(p.cluster().dvm().cost()) {
  ensure_subsystems_defined();
  pm_section = obs::PostmortemSection(
      "core.rank" + std::to_string(p.rank()),
      [this](std::ostream& os) { dump_proc_state(*this, os); });
}

ProcState& ProcState::of(sim::Process& p) {
  // Several threads may act as this rank concurrently (ProcessAdopter), so
  // creation must be synchronized.
  std::lock_guard lock(p.mpi_state_mu);
  if (!p.mpi_state) {
    p.mpi_state = std::make_shared<ProcState>(p);
  }
  return *std::static_pointer_cast<ProcState>(p.mpi_state);
}

ProcState& ProcState::current() { return of(sim::Cluster::current()); }

pmix::PmixClient& ProcState::pmix() {
  if (!proc.pmix_client) {
    throw Error(ErrClass::session, "PMIx not initialized (no live session)");
  }
  return *proc.pmix_client;
}

void ProcState::ensure_subsystems_defined() {
  auto& reg = proc.subsystems();
  // Idempotence: ProcState is constructed once per process, and these
  // definitions survive init/finalize cycles; guard anyway for re-entry.
  try {
    reg.define("mca",
               [this] {
                 // Component (MCA) load: first process on the node pays the
                 // NFS cost, node-mates block on the same load (§IV-C1).
                 proc.cluster().dvm().load_components(proc.node());
               },
               nullptr);
  } catch (const Error&) {
    return;  // already defined
  }
  reg.define("pmix",
             [this] {
               proc.pmix_client = std::make_unique<pmix::PmixClient>(
                   proc.cluster().dvm().pmix(), proc.rank());
               // Failure-awareness bridge: record runtime failure events so
               // Communicator::get_failed() reports what the runtime told
               // this process (delivered on our own thread during polls).
               proc.pmix_client->register_event_handler(
                   [this](const pmix::Event& ev) {
                     if (ev.kind == pmix::EventKind::proc_failed) {
                       std::lock_guard lock(mu);
                       failure_notices.insert(ev.about);
                     }
                   });
               // Publish our endpoint blob the moment the client exists:
               // lazy-modex peers resolve it on first contact without any
               // fence, so Session_init stays local (DESIGN.md §15).
               proc.pmix_client->put(
                   "pml.endpoint", static_cast<std::uint64_t>(proc.rank()));
               proc.pmix_client->commit();
             },
             [this] { proc.pmix_client.reset(); }, {"mca"});
  reg.define("pml",
             nullptr,
             [this] {
               // Final teardown: all communicators are invalid after the
               // last session finalizes; clear the PML tables so a new init
               // cycle starts clean.
               std::lock_guard lock(mu);
               for (auto& c : comm_by_cid) {
                 if (c) {
                   c->freed = true;
                 }
               }
               comm_by_cid.clear();
               comm_by_excid.clear();
               orphans.clear();
               send_tokens.clear();
               recv_tokens.clear();
               nbc_live.clear();
               cid_alloc = base::SlotAllocator{kCidSpace};
             },
             {"mca"});
  reg.define("instance",
             [this] {
               // MPI resource initialization associated with the first
               // session handle (paper: ~30% of sessions startup at 28 ppn).
               base::precise_delay(cost.session_resource_init_ns);
             },
             nullptr, {"mca", "pmix", "pml"});
  reg.define("world", [this] { init_world_objects(*this); },
             [this] { teardown_world_objects(*this); }, {"instance"});
}

void ProcState::acquire_instance() {
  proc.subsystems().acquire("instance");
  {
    std::lock_guard lock(mu);
    ++live_sessions;
  }
}

void ProcState::release_instance() {
  {
    std::lock_guard lock(mu);
    --live_sessions;
  }
  proc.subsystems().release("instance");
}

std::shared_ptr<CommState> ProcState::register_comm(
    const Group& grp, ExCidSpace space, bool uses_excid,
    std::optional<std::uint16_t> fixed_cid, bool already_claimed) {
  std::lock_guard lock(mu);
  std::uint32_t cid;
  if (fixed_cid) {
    cid = *fixed_cid;
    if (!already_claimed && !cid_alloc.claim(cid)) {
      throw Error(ErrClass::intern, "CID slot already in use");
    }
  } else {
    auto lowest = cid_alloc.lowest_free();
    if (!lowest) {
      throw Error(ErrClass::other, "communicator CID space exhausted");
    }
    cid = *lowest;
    cid_alloc.claim(cid);
  }

  auto comm = std::make_shared<CommState>();
  comm->ps = this;
  comm->grp = grp;
  comm->myrank = grp.rank_of(proc.rank());
  comm->cid = static_cast<std::uint16_t>(cid);
  comm->excid_space = space;
  comm->uses_excid = uses_excid;
  // peers/acked are sparse (populated on contact / acknowledgement), so a
  // 16k-member comm costs nothing per rank until traffic actually flows.

  if (comm_by_cid.size() <= cid) {
    comm_by_cid.resize(cid + 1);
  }
  comm_by_cid[cid] = comm;
  if (uses_excid) {
    comm_by_excid[comm->excid_space.id()] = comm;
    // Re-deliver any early arrivals that referenced this exCID before the
    // local communicator existed (peers can finish construction first).
    std::vector<fabric::Packet> replay;
    for (auto it = orphans.begin(); it != orphans.end();) {
      if (it->ext.excid_hi == comm->excid_space.id().hi &&
          it->ext.excid_lo == comm->excid_space.id().lo) {
        replay.push_back(std::move(*it));
        it = orphans.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& pkt : replay) {
      dispatch(std::move(pkt));
    }
  }
  return comm;
}

base::Result<std::shared_ptr<CommState>> ProcState::register_fresh_comm(
    const Group& grp, const std::string& context) {
  auto pgcid = pmix().acquire_pgcid(grp.members(), context);
  if (!pgcid.ok()) {
    return pgcid.error();
  }
  {
    std::lock_guard lock(mu);
    ++pgcids;
  }
  OBS_SPAN("cid.excid_alloc", "core");
  return register_comm(grp, ExCidSpace::fresh(pgcid.value()),
                       /*uses_excid=*/true, std::nullopt);
}

void ProcState::unregister_comm(CommState& comm) {
  std::lock_guard lock(mu);
  if (comm.freed) {
    return;
  }
  comm.freed = true;
  comm.coll_plan.reset();
  comm.attrs.clear();
  cid_alloc.release(comm.cid);
  if (comm.cid < comm_by_cid.size()) {
    comm_by_cid[comm.cid] = nullptr;
  }
  if (comm.uses_excid) {
    comm_by_excid.erase(comm.excid_space.id());
  }
}

}  // namespace sessmpi::detail
