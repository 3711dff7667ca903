#pragma once

// Asynchronous PMIx group construction — the *invite/join* model of paper
// §III-A: the initiator invites a set of processes; each invitee joins or
// declines (or never answers); the initiator can finalize with a timeout,
// dropping non-responders and decliners, so failed processes can be
// "replaced" by simply proceeding without them. Completion raises
// group_ready events and registers the group (with a PGCID) exactly like
// the collective constructor.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/result.hpp"
#include "sessmpi/base/wait.hpp"
#include "sessmpi/pmix/value.hpp"

namespace sessmpi::pmix {

enum class InviteResponse : std::uint8_t { pending, joined, declined };

struct InviteStatus {
  std::string name;
  ProcId initiator = -1;
  std::vector<ProcId> invited;
  std::vector<ProcId> joined;
  std::vector<ProcId> declined;
  bool completed = false;
  std::uint64_t pgcid = 0;
};

/// Runtime-side state for in-flight asynchronous constructions.
class InviteBoard {
 public:
  /// Start an invitation. Fails (rte_exists) if `name` is already inviting.
  base::RtStatus open(const std::string& name, ProcId initiator,
                      const std::vector<ProcId>& invited);

  /// Record a response. Returns rte_not_found for unknown names and
  /// rte_bad_param if `who` was not invited or already answered.
  base::RtStatus respond(const std::string& name, ProcId who, bool join);

  /// True once every invitee has answered.
  [[nodiscard]] bool all_answered(const std::string& name) const;

  [[nodiscard]] std::optional<InviteStatus> status(
      const std::string& name) const;

  /// Block until every invitee answered or `timeout` expires; then close
  /// the invitation and return its final status (non-responders remain
  /// pending and are simply not part of the group). rte_not_found for
  /// unknown names.
  base::Result<InviteStatus> finalize(const std::string& name,
                                      std::optional<base::Nanos> timeout);

  [[nodiscard]] std::size_t open_invitations() const;

 private:
  struct Entry {
    InviteStatus st;
    std::map<ProcId, InviteResponse> responses;
  };
  mutable std::mutex mu_;
  base::WaitWord word_;  ///< notified by every response
  std::map<std::string, Entry> entries_;
};

}  // namespace sessmpi::pmix
