// Failure acknowledgment, revocation, and shrink (ULFM-style recovery).
//
// Shrink builds on two uniformity guarantees of the lower layers:
//  - agree() (agree.cpp) delivers the same survivor mask to every survivor;
//  - the PMIx collective engine aborts a PGCID acquisition with
//    rte_proc_failed for *all* live participants when any participant dies
//    (late arrivals observe the same abort), so every survivor retries the
//    construction together instead of diverging.

#include "sessmpi/ft/ft.hpp"

#include "detail/state.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/pmix/client.hpp"

namespace sessmpi {

namespace {

const std::shared_ptr<detail::CommState>& ft_state(const Communicator& comm) {
  const auto& s = detail_unwrap(comm);
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "null or freed communicator");
  }
  return s;
}

}  // namespace

std::vector<int> Communicator::get_failed() const {
  const auto& s = ft_state(*this);
  detail::ProcState& ps = *s->ps;
  // Deliver queued runtime events (proc_failed handlers run on our thread).
  ps.pmix().poll_events();
  fabric::Fabric& fab = ps.proc.cluster().fabric();
  std::vector<int> out;
  std::lock_guard lock(ps.mu);
  for (int r = 0; r < s->size(); ++r) {
    const base::Rank global = s->global_of(r);
    if (fab.is_failed(global) || ps.failure_notices.contains(global)) {
      out.push_back(r);
    }
  }
  return out;
}

std::vector<int> Communicator::ack_failed() const {
  const auto& s = ft_state(*this);
  detail::ProcState& ps = *s->ps;
  std::vector<int> failed = get_failed();
  std::vector<int> newly;
  std::lock_guard lock(ps.mu);
  for (int r : failed) {
    if (s->acked.insert(r).second) {
      newly.push_back(r);
    }
  }
  return newly;
}

void Communicator::revoke() const {
  const auto& s = ft_state(*this);
  detail::ProcState& ps = *s->ps;
  OBS_INSTANT("ft.revoke", "ft");
  std::lock_guard lock(ps.mu);
  ps.revoke_comm_locked(s, /*flood=*/true);
}

bool Communicator::is_revoked() const {
  const auto& s = ft_state(*this);
  std::lock_guard lock(s->ps->mu);
  return s->revoked;
}

Communicator Communicator::shrink() const {
  const auto& s = ft_state(*this);
  detail::ProcState& ps = *s->ps;
  fabric::Fabric& fab = ps.proc.cluster().fabric();
  base::counters().add("ft.shrinks");
  OBS_SPAN("ft.shrink", "ft");
  const int n = s->size();

  // Fold everything we already know into the acknowledged set; from here on
  // new deaths surface as agreement exclusions or construction aborts.
  (void)ack_failed();

  for (int attempt = 0;; ++attempt) {
    // 1. Agree on the survivor set, 64 members per agreement word: a bit
    // survives the AND only if *no* survivor knows that member dead.
    std::uint32_t seq0;
    {
      std::lock_guard lock(ps.mu);
      seq0 = s->ft_seq;  // lockstep across survivors; names the attempt
    }
    std::vector<std::uint64_t> mask(static_cast<std::size_t>((n + 63) / 64));
    for (int r = 0; r < n; ++r) {
      if (!fab.is_failed(s->global_of(r))) {
        mask[static_cast<std::size_t>(r / 64)] |= 1ull << (r % 64);
      }
    }
    for (auto& word : mask) {
      word = agree(word);
    }

    std::vector<base::Rank> globals;
    globals.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) {
      if ((mask[static_cast<std::size_t>(r / 64)] >> (r % 64)) & 1u) {
        globals.push_back(s->global_of(r));
      }
    }

    // 2. Regular exCID construction over the survivors. A death inside the
    // PGCID collective aborts uniformly (rte_proc_failed for everyone), so
    // all survivors loop back and re-agree together.
    auto fresh = ps.register_fresh_comm(
        Group::of(std::move(globals)),
        "shrink:" + s->excid_space.id().str() + ":" + std::to_string(seq0) +
            ":" + std::to_string(attempt));
    if (!fresh.ok()) {
      base::counters().add("ft.shrink_retries");
      continue;
    }
    auto child = std::move(fresh.value());
    child->errh = s->errh;
    child->comm_name = s->comm_name + "(shrink)";
    return detail_wrap(std::move(child));
  }
}

}  // namespace sessmpi
