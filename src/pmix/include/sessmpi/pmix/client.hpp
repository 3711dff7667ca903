#pragma once

// Per-process PMIx client. Provides the subset of the PMIx API the MPI
// Sessions prototype needed (paper §III-A): modex put/commit/get, fence,
// collective group construct/destruct (with directives: leader, timeout,
// PGCID request, termination events), asynchronous group departure, pset
// and group queries, and event-handler registration.
//
// Collectives run in the three-stage hierarchical fashion described in the
// paper: node-local gather at the local server, inter-server all-to-all
// (modeled by the cost model's exchange costs), node-local release.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sessmpi/base/result.hpp"
#include "sessmpi/pmix/runtime.hpp"

namespace sessmpi::pmix {

class Participants;

struct GroupResult {
  std::uint64_t pgcid = 0;
  ProcId leader = -1;
  std::vector<ProcId> members;
};

class PmixClient {
 public:
  /// PMIx_Init: attaches to the node-local server (cost: one serialized RPC
  /// plus the modeled client-init time).
  PmixClient(PmixRuntime& runtime, ProcId self);

  /// PMIx_Finalize: departs any live groups asynchronously.
  ~PmixClient();

  PmixClient(const PmixClient&) = delete;
  PmixClient& operator=(const PmixClient&) = delete;

  [[nodiscard]] ProcId self() const noexcept { return self_; }
  [[nodiscard]] PmixRuntime& runtime() noexcept { return runtime_; }

  // --- modex -------------------------------------------------------------
  void put(const std::string& key, Value value);
  std::size_t commit();
  /// Blocking lookup of `key` published by `proc` (dmodex semantics).
  base::Result<Value> get(ProcId proc, const std::string& key,
                          base::Nanos timeout = std::chrono::seconds(5));
  /// Non-blocking lookup (PMIX_IMMEDIATE): returns not_found instead of
  /// waiting for the key to appear. Used by ckpt restore to probe a dead
  /// peer's committed-epoch metadata without a 5 s stall per dead rank.
  base::Result<Value> get_immediate(ProcId proc, const std::string& key);

  // --- lazy modex (DESIGN.md §15) -----------------------------------------
  /// Cached peer-info lookup: the per-rank modex cache answers repeats for
  /// free (counter pmix.modex_cache_hits); a miss performs one lazy fetch
  /// (counter pmix.modex_lazy_fetches, cost modex_per_peer_ns + RPC) and
  /// parks on the datastore until the peer publishes or is declared
  /// failed. A peer that died before ever publishing lands in the negative
  /// cache and every call returns rte_proc_failed immediately; the PML then
  /// marks it failed in the fabric, so a first send to a dead rank takes the
  /// ordinary dead-peer path instead of hanging.
  base::Result<Value> peer_info(ProcId proc, const std::string& key,
                                base::Nanos timeout = std::chrono::seconds(2));

  /// Shared pset-membership snapshot (one RPC): all ranks resolving the
  /// same pset in the same failure epoch share ONE members vector owned by
  /// the runtime — the O(n^2)-memory killer at 10k ranks. Fails with
  /// rte_not_found for unknown psets; mpi://self and mpi://shared are
  /// resolved client-side by query_pset_membership instead.
  base::Result<std::shared_ptr<const std::vector<ProcId>>> pset_snapshot(
      const std::string& name);

  // --- fence ---------------------------------------------------------------
  /// Collective barrier over `procs` (must contain self). Events queued for
  /// this process are delivered (handlers invoked) before returning.
  base::RtStatus fence(const std::vector<ProcId>& procs,
                       std::optional<base::Nanos> timeout = std::nullopt);

  // --- groups --------------------------------------------------------------
  base::Result<GroupResult> group_construct(const std::string& name,
                                            const std::vector<ProcId>& members,
                                            const GroupDirectives& dirs = {});
  /// Acquire a fresh PGCID collectively over `members` without registering
  /// a named group (models a construct/destruct pair used purely for CID
  /// generation; cost equals the group construct exchange). This is how the
  /// MPI layer's exCID generator obtains new 64-bit ids (paper §III-B3).
  /// `context` keeps concurrent acquisitions from overlapping member sets
  /// apart (the MPI layer passes the user-visible string tag).
  base::Result<std::uint64_t> acquire_pgcid(
      const std::vector<ProcId>& members, const std::string& context = "",
      std::optional<base::Nanos> timeout = std::nullopt);

  base::RtStatus group_destruct(const std::string& name,
                                const std::vector<ProcId>& members,
                                std::optional<base::Nanos> timeout = std::nullopt);
  /// Asynchronous departure: remaining members receive group_member_left.
  base::RtStatus group_leave(const std::string& name);

  // --- asynchronous (invite/join) construction (paper §III-A) -------------
  /// Initiator: open an invitation; invitees receive group_invited events.
  base::RtStatus group_invite(const std::string& name,
                              const std::vector<ProcId>& members);
  /// Invitee responses.
  base::RtStatus group_join(const std::string& name);
  base::RtStatus group_decline(const std::string& name);
  /// Initiator: wait (up to `timeout`) for responses, then close the
  /// invitation. Decliners and non-responders are dropped; the group forms
  /// from whoever joined, gets a PGCID, and joined members receive
  /// group_ready events.
  base::Result<GroupResult> group_invite_finalize(
      const std::string& name, const GroupDirectives& dirs = {},
      std::optional<base::Nanos> timeout = std::nullopt);

  // --- queries -------------------------------------------------------------
  [[nodiscard]] std::size_t query_num_psets();
  [[nodiscard]] std::vector<std::string> query_pset_names();
  base::Result<std::vector<ProcId>> query_pset_membership(
      const std::string& name);
  [[nodiscard]] std::size_t query_num_groups();
  [[nodiscard]] std::vector<std::string> query_group_names();

  // --- events ----------------------------------------------------------------
  int register_event_handler(EventBus::Handler handler);
  void deregister_event_handler(int id);
  std::vector<Event> poll_events();

 private:
  /// Three-stage hierarchical collective. `on_complete` runs exactly once
  /// across all participants (on the last delegate of the inter-server
  /// stage); its value is distributed to every participant.
  CollectiveEngine::Outcome hier_collective(
      const std::string& op_tag, const Participants& participants,
      std::optional<base::Nanos> timeout,
      const std::function<std::uint64_t()>& on_complete,
      std::int64_t exchange_delay_ns);

  std::uint64_t next_seq(const std::string& op_key);

  PmixRuntime& runtime_;
  ProcId self_;
  std::map<std::string, std::uint64_t> seq_;

  // Lazy-modex caches. Guarded by modex_mu_ (per-rank; held only for map
  // access, never across a modeled delay or a park).
  std::mutex modex_mu_;
  std::unordered_map<ProcId, std::map<std::string, Value>> peer_cache_;
  std::unordered_set<ProcId> peer_negative_;  ///< died before first publish
};

}  // namespace sessmpi::pmix
