#include "sessmpi/pmix/invite.hpp"

#include <algorithm>

#include "sessmpi/base/clock.hpp"

namespace sessmpi::pmix {

base::RtStatus InviteBoard::open(const std::string& name, ProcId initiator,
                                 const std::vector<ProcId>& invited) {
  std::lock_guard lock(mu_);
  if (entries_.contains(name)) {
    return base::RtStatus::fail(base::ErrClass::rte_exists);
  }
  Entry e;
  e.st.name = name;
  e.st.initiator = initiator;
  e.st.invited = invited;
  for (ProcId p : invited) {
    e.responses[p] = InviteResponse::pending;
  }
  // The initiator implicitly joins its own group.
  if (e.responses.contains(initiator)) {
    e.responses[initiator] = InviteResponse::joined;
    e.st.joined.push_back(initiator);
  }
  entries_.emplace(name, std::move(e));
  return base::RtStatus::success();
}

base::RtStatus InviteBoard::respond(const std::string& name, ProcId who,
                                    bool join) {
  {
    std::lock_guard lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return base::RtStatus::fail(base::ErrClass::rte_not_found);
    }
    auto rit = it->second.responses.find(who);
    if (rit == it->second.responses.end() ||
        rit->second != InviteResponse::pending) {
      return base::RtStatus::fail(base::ErrClass::rte_bad_param);
    }
    rit->second = join ? InviteResponse::joined : InviteResponse::declined;
    (join ? it->second.st.joined : it->second.st.declined).push_back(who);
  }
  word_.notify();
  return base::RtStatus::success();
}

bool InviteBoard::all_answered(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return false;
  }
  return std::all_of(it->second.responses.begin(), it->second.responses.end(),
                     [](const auto& kv) {
                       return kv.second != InviteResponse::pending;
                     });
}

std::optional<InviteStatus> InviteBoard::status(const std::string& name) const {
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second.st;
}

base::Result<InviteStatus> InviteBoard::finalize(
    const std::string& name, std::optional<base::Nanos> timeout) {
  base::wait_until(
      word_, [&] { return all_answered(name) || !status(name); },
      timeout ? base::now_ns() + timeout->count() : base::kNoDeadline);
  std::lock_guard lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return base::ErrClass::rte_not_found;
  }
  // Close regardless: pending invitees are dropped (the paper's "replace
  // processes that ... fail to respond within a specified time").
  it->second.st.completed = true;
  InviteStatus out = it->second.st;
  entries_.erase(it);
  return out;
}

std::size_t InviteBoard::open_invitations() const {
  std::lock_guard lock(mu_);
  return entries_.size();
}

}  // namespace sessmpi::pmix
