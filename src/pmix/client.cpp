#include "sessmpi/pmix/client.hpp"

#include <algorithm>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/pmix/participants.hpp"

namespace sessmpi::pmix {

namespace {

/// FNV-1a over the participant list: disambiguates concurrent collectives
/// that share a tag but involve different process subsets.
std::uint64_t signature(const std::vector<ProcId>& procs) {
  std::uint64_t h = 1469598103934665603ull;
  for (ProcId p : procs) {
    h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(p));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

PmixClient::PmixClient(PmixRuntime& runtime, ProcId self)
    : runtime_(runtime), self_(self) {
  runtime_.server_of(self_).rpc_delay();
  base::precise_delay(runtime_.cost().pmix_client_init_ns);
}

PmixClient::~PmixClient() {
  // PMIx_Finalize departs any groups this process still belongs to so that
  // survivors observe an orderly departure rather than a failure.
  for (const GroupRecord& rec : runtime_.groups().groups_of(self_)) {
    group_leave(rec.name);
  }
}

std::uint64_t PmixClient::next_seq(const std::string& op_key) {
  return ++seq_[op_key];
}

void PmixClient::put(const std::string& key, Value value) {
  runtime_.datastore().put(self_, key, std::move(value));
}

std::size_t PmixClient::commit() {
  OBS_SPAN("pmix.modex.commit", "pmix");
  runtime_.server_of(self_).rpc_delay();
  return runtime_.datastore().commit(self_);
}

base::Result<Value> PmixClient::get(ProcId proc, const std::string& key,
                                    base::Nanos timeout) {
  OBS_SPAN("pmix.modex.get", "pmix");
  runtime_.server_of(self_).rpc_delay();
  if (runtime_.topology().node_of(proc) != runtime_.topology().node_of(self_)) {
    // Direct-modex fetch from a remote server.
    base::precise_delay(runtime_.cost().net_latency_ns);
  }
  auto v = runtime_.datastore().get(proc, key, timeout);
  if (!v) {
    return base::ErrClass::rte_timeout;
  }
  return *v;
}

base::Result<Value> PmixClient::get_immediate(ProcId proc,
                                              const std::string& key) {
  runtime_.server_of(self_).rpc_delay();
  if (runtime_.topology().node_of(proc) != runtime_.topology().node_of(self_)) {
    base::precise_delay(runtime_.cost().net_latency_ns);
  }
  auto v = runtime_.datastore().get_immediate(proc, key);
  if (!v) {
    return base::ErrClass::rte_not_found;
  }
  return *v;
}

base::Result<Value> PmixClient::peer_info(ProcId proc, const std::string& key,
                                          base::Nanos timeout) {
  static const auto cache_hits = base::counter("pmix.modex_cache_hits");
  static const auto lazy_fetches = base::counter("pmix.modex_lazy_fetches");
  {
    std::lock_guard lock(modex_mu_);
    if (peer_negative_.contains(proc)) {
      cache_hits.add();
      return base::ErrClass::rte_proc_failed;
    }
    auto pit = peer_cache_.find(proc);
    if (pit != peer_cache_.end()) {
      auto kit = pit->second.find(key);
      if (kit != pit->second.end()) {
        cache_hits.add();
        return kit->second;
      }
    }
  }

  // Miss: one dmodex fetch. Delays and the wait run outside modex_mu_, so
  // no park holds the cache lock.
  OBS_SPAN("pmix.modex.lazy_fetch", "pmix");
  lazy_fetches.add();
  runtime_.server_of(self_).rpc_delay();
  if (runtime_.topology().node_of(proc) != runtime_.topology().node_of(self_)) {
    base::precise_delay(runtime_.cost().net_latency_ns);
  }
  base::precise_delay(runtime_.cost().modex_per_peer_ns);

  // The failure check runs after each lookup, so a fetch racing the
  // failure notice keeps any value it found (sends to it are then simply
  // dropped, as before lazy modex); a dead peer whose blobs were never
  // found — or were already purged by the notice — resolves to proc_failed.
  const std::optional<Value> v = runtime_.datastore().get(
      proc, key, timeout, [&] { return runtime_.is_failed(proc); });
  std::lock_guard lock(modex_mu_);
  if (v) {
    peer_cache_[proc][key] = *v;
    return *v;
  }
  if (runtime_.is_failed(proc)) {
    peer_negative_.insert(proc);
    return base::ErrClass::rte_proc_failed;
  }
  return base::ErrClass::rte_timeout;
}

base::Result<std::shared_ptr<const std::vector<ProcId>>>
PmixClient::pset_snapshot(const std::string& name) {
  runtime_.server_of(self_).rpc_delay();
  try {
    return runtime_.pset_snapshot(name);
  } catch (const base::Error&) {
    return base::ErrClass::rte_not_found;
  }
}

CollectiveEngine::Outcome PmixClient::hier_collective(
    const std::string& op_tag, const Participants& participants,
    std::optional<base::Nanos> timeout,
    const std::function<std::uint64_t()>& on_complete,
    std::int64_t exchange_delay_ns) {
  const std::string key_base =
      op_tag + "/" + std::to_string(signature(participants.procs())) + "#" +
      std::to_string(next_seq(op_tag));

  // Stage 0: notify the local server (serialized per node: fully subscribed
  // nodes pay proportionally more, as in the paper's 28-ppn results).
  runtime_.server_of(self_).rpc_delay();

  const int my_node = runtime_.topology().node_of(self_);
  const std::vector<ProcId> locals = participants.on_node_of(self_);
  const std::vector<ProcId> delegates = participants.delegates();
  const bool is_delegate = std::ranges::binary_search(delegates, self_);

  CollectiveEngine& engine = runtime_.collectives();

  // Stage 1: node-local gather at the local server.
  auto out1 = [&] {
    OBS_SPAN("pmix.hier.local_gather", "pmix");
    return engine.arrive(key_base + ":L" + std::to_string(my_node), locals,
                         self_, timeout, nullptr, 0);
  }();
  if (!out1.status.ok()) {
    return out1;
  }

  // Stage 2: inter-server all-to-all among node delegates. The completing
  // delegate runs on_complete (e.g. PGCID assignment) and posts the result
  // (and any failure) on the value board for the release stage.
  // The per-node slot the delegate uses to hand the inter-server result to
  // its node's release stage. Strictly node-local: the delegate posts before
  // joining the release op, and the release op cannot complete without the
  // delegate, so the value is always present; it is consumed (erased)
  // exactly once, by the release op's completion.
  const std::string value_key = key_base + ":V" + std::to_string(my_node);
  if (is_delegate) {
    OBS_SPAN("pmix.hier.exchange", "pmix");
    auto out2 = engine.arrive(key_base + ":G", delegates, self_, timeout,
                              on_complete, exchange_delay_ns);
    runtime_.board().post(value_key, out2.value);
    if (!out2.status.ok()) {
      // Failure marker is never erased (rare, bounded) so non-delegates can
      // read it at any point after release without racing cleanup.
      runtime_.board().post(key_base + ":st",
                            static_cast<std::uint64_t>(out2.status.cls));
    }
  }

  // Stage 3: node-local release; the engine distributes the node's board
  // value to every local participant atomically with completion.
  ValueBoard& board = runtime_.board();
  OBS_SPAN("pmix.hier.release", "pmix");
  auto out3 = engine.arrive(
      key_base + ":R" + std::to_string(my_node), locals, self_, timeout,
      [&board, value_key] { return board.consume(value_key, 1); }, 0);
  if (!out3.status.ok()) {
    return out3;
  }
  const auto stage2_err =
      static_cast<base::ErrClass>(board.read(key_base + ":st"));
  if (stage2_err != base::ErrClass::success) {
    return {base::RtStatus::fail(stage2_err), 0};
  }
  return out3;
}

base::RtStatus PmixClient::fence(const std::vector<ProcId>& procs,
                                 std::optional<base::Nanos> timeout) {
  const Participants parts(procs, runtime_.topology());
  if (!parts.contains(self_)) {
    return base::RtStatus::fail(base::ErrClass::rte_bad_param);
  }
  OBS_SPAN_ARG("pmix.fence", "pmix", procs.size());
  const std::int64_t t0 = base::now_ns();
  auto out = hier_collective("fence", parts, timeout, nullptr,
                             runtime_.cost().fence_exchange_cost(parts.span()));
  static obs::Histogram& hist = obs::histogram("pmix.fence_ns");
  hist.record(static_cast<std::uint64_t>(base::now_ns() - t0));
  poll_events();
  return out.status;
}

base::Result<GroupResult> PmixClient::group_construct(
    const std::string& name, const std::vector<ProcId>& members,
    const GroupDirectives& dirs) {
  const Participants parts(members, runtime_.topology());
  if (!parts.contains(self_)) {
    return base::ErrClass::rte_bad_param;
  }
  if (dirs.error_on_early_termination) {
    for (ProcId m : members) {
      if (runtime_.is_failed(m)) {
        return base::ErrClass::rte_proc_failed;
      }
    }
  }
  if (runtime_.groups().lookup(name)) {
    return base::ErrClass::rte_exists;
  }
  OBS_SPAN_ARG("pmix.group_construct", "pmix", members.size());
  const ProcId leader = dirs.leader.value_or(
      *std::min_element(members.begin(), members.end()));
  PmixRuntime& rt = runtime_;
  const bool want_pgcid = dirs.request_pgcid;
  const bool notify = dirs.notify_on_termination;
  auto out = hier_collective(
      "grp:" + name, parts, dirs.timeout,
      [&rt, name, members, leader, want_pgcid, notify] {
        const std::uint64_t pgcid = want_pgcid ? rt.alloc_pgcid() : 0;
        GroupRecord rec;
        rec.name = name;
        rec.pgcid = pgcid;
        rec.leader = leader;
        rec.members = members;
        rec.notify_on_termination = notify;
        rt.groups().add(std::move(rec));
        return pgcid;
      },
      rt.cost().group_exchange_cost(parts.span()));
  if (!out.status.ok()) {
    return out.status.cls;
  }
  GroupResult res;
  res.pgcid = out.value;
  res.leader = leader;
  res.members = members;
  return res;
}

base::Result<std::uint64_t> PmixClient::acquire_pgcid(
    const std::vector<ProcId>& members, const std::string& context,
    std::optional<base::Nanos> timeout) {
  const Participants parts(members, runtime_.topology());
  if (!parts.contains(self_)) {
    return base::ErrClass::rte_bad_param;
  }
  OBS_SPAN_ARG("pmix.pgcid_acquire", "pmix", members.size());
  PmixRuntime& rt = runtime_;
  auto out = hier_collective(
      "pgcid:" + context, parts, timeout, [&rt] { return rt.alloc_pgcid(); },
      rt.cost().group_exchange_cost(parts.span()));
  if (!out.status.ok()) {
    return out.status.cls;
  }
  return out.value;
}

base::RtStatus PmixClient::group_destruct(const std::string& name,
                                          const std::vector<ProcId>& members,
                                          std::optional<base::Nanos> timeout) {
  const Participants parts(members, runtime_.topology());
  if (!parts.contains(self_)) {
    return base::RtStatus::fail(base::ErrClass::rte_bad_param);
  }
  PmixRuntime& rt = runtime_;
  auto out = hier_collective(
      "grpdel:" + name, parts, timeout,
      [&rt, name] {
        rt.groups().remove(name);
        return std::uint64_t{0};
      },
      rt.cost().group_destruct_base_ns +
          rt.cost().fence_per_node_ns *
              base::CostModel::log2_ceil(parts.span()));
  return out.status;
}

base::RtStatus PmixClient::group_leave(const std::string& name) {
  runtime_.server_of(self_).rpc_delay();
  auto rec = runtime_.groups().lookup(name);
  if (!rec) {
    return base::RtStatus::fail(base::ErrClass::rte_not_found);
  }
  auto remaining = runtime_.groups().leave(name, self_);
  if (remaining && !remaining->empty()) {
    Event e;
    e.kind = EventKind::group_member_left;
    e.about = self_;
    e.group = name;
    e.pgcid = rec->pgcid;
    runtime_.events().notify(e, *remaining);
  }
  return base::RtStatus::success();
}

base::RtStatus PmixClient::group_invite(const std::string& name,
                                        const std::vector<ProcId>& members) {
  runtime_.server_of(self_).rpc_delay();
  if (members.empty() ||
      std::find(members.begin(), members.end(), self_) == members.end()) {
    return base::RtStatus::fail(base::ErrClass::rte_bad_param);
  }
  if (runtime_.groups().lookup(name)) {
    return base::RtStatus::fail(base::ErrClass::rte_exists);
  }
  auto st = runtime_.invites().open(name, self_, members);
  if (!st.ok()) {
    return st;
  }
  Event e;
  e.kind = EventKind::group_invited;
  e.about = self_;
  e.group = name;
  std::vector<ProcId> targets;
  for (ProcId m : members) {
    if (m != self_) {
      targets.push_back(m);
    }
  }
  runtime_.events().notify(e, targets);
  return base::RtStatus::success();
}

base::RtStatus PmixClient::group_join(const std::string& name) {
  runtime_.server_of(self_).rpc_delay();
  return runtime_.invites().respond(name, self_, /*join=*/true);
}

base::RtStatus PmixClient::group_decline(const std::string& name) {
  runtime_.server_of(self_).rpc_delay();
  return runtime_.invites().respond(name, self_, /*join=*/false);
}

base::Result<GroupResult> PmixClient::group_invite_finalize(
    const std::string& name, const GroupDirectives& dirs,
    std::optional<base::Nanos> timeout) {
  runtime_.server_of(self_).rpc_delay();
  auto fin = runtime_.invites().finalize(name, timeout);
  if (!fin.ok()) {
    return fin.error();
  }
  const InviteStatus& st = fin.value();
  if (st.joined.empty()) {
    return base::ErrClass::rte_not_found;
  }
  const std::uint64_t pgcid =
      dirs.request_pgcid ? runtime_.alloc_pgcid() : 0;
  GroupRecord rec;
  rec.name = name;
  rec.pgcid = pgcid;
  rec.leader = dirs.leader.value_or(st.initiator);
  rec.members = st.joined;
  rec.notify_on_termination = dirs.notify_on_termination;
  if (!runtime_.groups().add(std::move(rec))) {
    return base::ErrClass::rte_exists;
  }
  base::precise_delay(runtime_.cost().group_exchange_cost(
      Participants(st.joined, runtime_.topology()).span()));
  Event ready;
  ready.kind = EventKind::group_ready;
  ready.about = st.initiator;
  ready.group = name;
  ready.pgcid = pgcid;
  std::vector<ProcId> targets;
  for (ProcId m : st.joined) {
    if (m != self_) {
      targets.push_back(m);
    }
  }
  runtime_.events().notify(ready, targets);
  GroupResult out;
  out.pgcid = pgcid;
  out.leader = rec.leader;
  out.members = st.joined;
  return out;
}

std::size_t PmixClient::query_num_psets() {
  runtime_.server_of(self_).rpc_delay();
  return runtime_.psets().count();
}

std::vector<std::string> PmixClient::query_pset_names() {
  runtime_.server_of(self_).rpc_delay();
  return runtime_.psets().names();
}

base::Result<std::vector<ProcId>> PmixClient::query_pset_membership(
    const std::string& name) {
  runtime_.server_of(self_).rpc_delay();
  const base::Topology& topo = runtime_.topology();
  if (name == kPsetSelf) {
    return std::vector<ProcId>{self_};
  }
  if (name == kPsetShared) {
    std::vector<ProcId> out;
    const int node = topo.node_of(self_);
    for (ProcId p = 0; p < topo.size(); ++p) {
      if (topo.node_of(p) == node && !runtime_.is_failed(p)) {
        out.push_back(p);
      }
    }
    return out;
  }
  auto members = runtime_.psets().lookup(name);
  if (!members) {
    return base::ErrClass::rte_not_found;
  }
  // Fault awareness: a membership re-query reflects process failures, so an
  // application can rebuild its communicators the Sessions way — query the
  // pset again, derive a group, create_from_group — instead of (or after)
  // shrinking.
  std::vector<ProcId> out;
  out.reserve(members->size());
  for (ProcId p : *members) {
    if (!runtime_.is_failed(p)) {
      out.push_back(p);
    }
  }
  return out;
}

std::size_t PmixClient::query_num_groups() {
  runtime_.server_of(self_).rpc_delay();
  return runtime_.groups().count();
}

std::vector<std::string> PmixClient::query_group_names() {
  runtime_.server_of(self_).rpc_delay();
  return runtime_.groups().names();
}

int PmixClient::register_event_handler(EventBus::Handler handler) {
  return runtime_.events().register_handler(self_, std::move(handler));
}

void PmixClient::deregister_event_handler(int id) {
  runtime_.events().deregister_handler(self_, id);
}

std::vector<Event> PmixClient::poll_events() {
  return runtime_.events().poll(self_);
}

}  // namespace sessmpi::pmix
