// Fault-tolerant agreement (MPIX_Comm_agree flavour).
//
// Coordinator protocol with result flooding, uniform across survivors:
//
//  - The coordinator is the lowest-ranked live member. Fabric failure flags
//    are monotonic and globally consistent, so local views of "lowest live"
//    only ever move forward and all survivors converge on the same rank.
//  - Followers push their contribution to the coordinator and watch it with
//    a specific-source receive — the failure sweep completes that watch
//    with rte_proc_failed if the coordinator dies, triggering a re-push to
//    the next coordinator.
//  - The coordinator gathers one contribution per live member (dead
//    members' receives complete via the sweep and are excluded), ANDs them,
//    and floods the result to every live member.
//  - Every rank that decides floods the result before returning, and a
//    member that already decided never re-contributes: a new coordinator
//    blocked on a decided member's contribution is instead unblocked by
//    that member's flood and *adopts* the flooded value. This keeps the
//    decision uniform across coordinator deaths.
//
// All traffic runs on FT tags (<= kFtTagBase), so agreement also works on a
// revoked communicator — ULFM's carve-out for recovery operations.

#include <mutex>

#include "detail/state.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/trace.hpp"

namespace sessmpi {

namespace {

std::mutex g_agree_hook_mu;
ft::testing::AgreeHook g_agree_hook;

/// Fire the instrumentation hook for `step` (no-op unless a test installed
/// one). Must be called with ps.mu NOT held: the hook may throw or issue
/// failure injection that takes cluster-level locks.
[[maybe_unused]] const char* step_name(ft::AgreeStep step) {
  switch (step) {
    case ft::AgreeStep::enter:
      return "ft.agree.enter";
    case ft::AgreeStep::follower_pre_push:
      return "ft.agree.follower_pre_push";
    case ft::AgreeStep::follower_post_push:
      return "ft.agree.follower_post_push";
    case ft::AgreeStep::coordinator_gathered:
      return "ft.agree.coordinator_gathered";
    case ft::AgreeStep::pre_flood:
      return "ft.agree.pre_flood";
    case ft::AgreeStep::mid_flood:
      return "ft.agree.mid_flood";
    case ft::AgreeStep::post_flood:
      return "ft.agree.post_flood";
    case ft::AgreeStep::kNumSteps:
      break;
  }
  return "ft.agree.step";
}

void hook(ft::AgreeStep step, int me) {
  // The AgreeStep hook doubles as the trace probe: each protocol step is
  // an instant on the caller's track, so a merged trace shows where every
  // survivor was when a failure hit.
  OBS_INSTANT_ARG(step_name(step), "ft", static_cast<std::uint64_t>(me));
  ft::testing::AgreeHook h;
  {
    std::lock_guard lock(g_agree_hook_mu);
    h = g_agree_hook;
  }
  if (h) {
    h(step, me);
  }
}

}  // namespace

std::uint64_t Communicator::agree(std::uint64_t contribution) const {
  const auto& s = detail_unwrap(*this);
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "null or freed communicator");
  }
  detail::ProcState& ps = *s->ps;
  fabric::Fabric& fab = ps.proc.cluster().fabric();
  base::counters().add("ft.agrees");
  OBS_SPAN_ARG("ft.agree", "ft", contribution);
  // One flow per participant: every vote push and result flood this rank
  // sends carries the same span id, so the merged trace draws arrows from
  // this agree slice into the coordinator's match and every flood target.
  std::uint64_t agree_flow = 0;
  if (obs::Tracer::instance().enabled()) {
    agree_flow = obs::Tracer::next_span_id();
    OBS_FLOW_START("ft.agree", "ft", agree_flow, contribution);
  }
  obs::ScopedFlowContext agree_flow_scope(agree_flow);

  const int n = s->size();
  const int me = s->myrank;

  std::uint32_t seq;
  {
    std::lock_guard lock(ps.mu);
    seq = s->ft_seq++;
    // Scrub leftovers of completed FT collectives (late result floods):
    // older seq numbers map to strictly greater (less negative) tags.
    const int newest_current = detail::ft_tag(seq, 0);
    s->unexpected.erase_if([&](const fabric::Packet& p) {
      return detail::is_ft_tag(p.match.tag) && p.match.tag > newest_current;
    });
  }
  const int tag_contrib = detail::ft_tag(seq, 1);
  const int tag_result = detail::ft_tag(seq, 2);

  hook(ft::AgreeStep::enter, me);

  const auto lowest_live = [&] {
    for (int r = 0; r < n; ++r) {
      if (!fab.is_failed(s->global_of(r))) {
        return r;
      }
    }
    return me;
  };

  std::uint64_t decided = contribution;
  {
    // Persistent watcher: any decider may flood the result at any time.
    std::uint64_t flooded = 0;
    // A throw mid-protocol (self marked failed, cluster abort, or a test
    // hook modeling a crash) must not leave posted receives pointing at
    // this dying stack frame.
    detail::PostedScrub cleanup(ps, *s);
    detail::RequestPtr result_any = cleanup.add(ps.irecv_impl(
        s, &flooded, 1, datatype_of<std::uint64_t>(), any_source, tag_result));

    for (;;) {
      if (result_any->done()) {
        decided = flooded;
        break;
      }
      const int coord = lowest_live();
      if (coord == me) {
        // Gather one contribution per live member. A member that dies midway
        // completes its receive through the failure sweep (excluded); a
        // member that already decided floods instead of contributing, which
        // fires result_any and we adopt its value.
        std::vector<detail::RequestPtr> recvs(static_cast<std::size_t>(n));
        std::vector<std::uint64_t> contribs(static_cast<std::size_t>(n), 0);
        for (int r = 0; r < n; ++r) {
          if (r == me || fab.is_failed(s->global_of(r))) {
            continue;
          }
          recvs[static_cast<std::size_t>(r)] = cleanup.add(
              ps.irecv_impl(s, &contribs[static_cast<std::size_t>(r)], 1,
                            datatype_of<std::uint64_t>(), r, tag_contrib));
        }
        ps.progress_until([&] {
          if (result_any->done()) {
            return true;
          }
          for (const auto& r : recvs) {
            if (r && !r->done()) {
              return false;
            }
          }
          return true;
        });
        if (result_any->done()) {
          decided = flooded;
        } else {
          for (int r = 0; r < n; ++r) {
            const auto& req = recvs[static_cast<std::size_t>(r)];
            if (req && req->status.error == ErrClass::success) {
              decided &= contribs[static_cast<std::size_t>(r)];
            }
          }
        }
        hook(ft::AgreeStep::coordinator_gathered, me);
        break;
      }

      // Follower: push the contribution (eager — completes locally even if
      // the coordinator is already gone) and watch the coordinator.
      hook(ft::AgreeStep::follower_pre_push, me);
      ps.isend_impl(s, &contribution, 1, datatype_of<std::uint64_t>(), coord,
                    tag_contrib, /*sync=*/false);
      hook(ft::AgreeStep::follower_post_push, me);
      std::uint64_t watched = 0;
      detail::RequestPtr watch = cleanup.add(
          ps.irecv_impl(s, &watched, 1, datatype_of<std::uint64_t>(), coord,
                        tag_result));
      ps.progress_until([&] { return result_any->done() || watch->done(); });
      if (result_any->done()) {
        decided = flooded;
        break;
      }
      if (watch->status.error == ErrClass::success) {
        // The flood from the coordinator matched the specific-source watch
        // (possible when result_any already fired for an earlier packet...
        // it has not here, but a direct match is equivalent).
        decided = watched;
        break;
      }
      // Coordinator died; converge on the next lowest live rank. This is the
      // closest thing the protocol has to an "agreement timeout" (there is no
      // timer — the failure sweep completes the watch), so it doubles as a
      // flight-recorder trigger.
      base::counters().add("ft.agree_coordinator_deaths");
      obs::trigger_postmortem("agree_coordinator_death");
    }
  }

  // Flood the decision to every live member before returning, so survivors
  // that have not decided yet can adopt it even if we (or the coordinator)
  // die right after returning.
  hook(ft::AgreeStep::pre_flood, me);
  bool flood_first = true;
  for (int r = 0; r < n; ++r) {
    if (r == me || fab.is_failed(s->global_of(r))) {
      continue;
    }
    ps.isend_impl(s, &decided, 1, datatype_of<std::uint64_t>(), r, tag_result,
                  /*sync=*/false);
    if (flood_first) {
      flood_first = false;
      hook(ft::AgreeStep::mid_flood, me);
    }
  }
  hook(ft::AgreeStep::post_flood, me);
  return decided;
}

namespace ft::testing {

void set_agree_hook(AgreeHook new_hook) {
  std::lock_guard lock(g_agree_hook_mu);
  g_agree_hook = std::move(new_hook);
}

}  // namespace ft::testing

}  // namespace sessmpi
