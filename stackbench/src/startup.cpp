// startup workload: 1024 ranks as 32 nodes x 32 ppn on fibers, in repeated
// cycles. Each cycle builds the cluster, brings every rank to its first
// communicator and first message (lazy modex + exCID handshake), runs
// kRounds create_from_group + barrier + free rounds, then finalizes and
// destroys the cluster.

#include "ops.hpp"
#include "probes.hpp"
#include "workload.hpp"

namespace stackbench {

namespace {

constexpr int kNodes = 32;
constexpr int kPpn = 32;
constexpr int kRanks = kNodes * kPpn;
constexpr int kRounds = 6;
constexpr int kBlocks = 4;  ///< groups of consecutive cycles for the rounds
constexpr const char* kRoundTags[kRounds] = {
    "stackbench.round0", "stackbench.round1", "stackbench.round2",
    "stackbench.round3", "stackbench.round4", "stackbench.round5"};

struct Cycle {
  double setup_s = 0;
  double build_ms = 0;
  double cycle_s = 0;
  std::vector<double> round_ns;  ///< per round, worst rank
  std::vector<double> create_p90_ns;  ///< per round, p90 over ranks
  double first_contact_ns = 0;   ///< worst rank
  double first_comm_ns = 0;      ///< init + group + create, worst rank
};

Cycle run_cycle(const Args& a, std::uint64_t index, Report& rep, Tracing* tr,
                bool probes) {
  std::vector<std::int64_t> ready_at(kRanks);  // per rank
  std::vector<Tally> tallies(kRanks);
  std::vector<std::vector<double>> rounds(kRanks);
  std::vector<std::vector<double>> created(kRanks);
  std::vector<std::vector<double>> contact(kRanks);
  std::vector<std::vector<double>> first_comm(kRanks);
  Cycle out;
  const std::int64_t t0 = now_ns();
  {
    sim::Cluster cl{zero_opts(kNodes, kPpn)};
    out.build_ms = static_cast<double>(now_ns() - t0) / 1e6;
    if (tr != nullptr) tr->start(cl.fabric());
    cl.run([&](sim::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      Tally& t = tallies[r];
      Setup s;
      {
        STACKBENCH_SPAN("app.setup");
        s = session_setup("stackbench.startup", a.seed, index, t);
      }
      ready_at[static_cast<std::size_t>(p.rank())] = s.ready_at_ns;
      contact[r].push_back(static_cast<double>(s.first_msg_ns));
      first_comm[r].push_back(
          static_cast<double>(s.init_ns + s.group_ns + s.create_ns));
      {
        STACKBENCH_SPAN("app.rounds");
        // Every round starts and ends at a barrier on the session
        // communicator, outside its timing: otherwise the first round
        // carries the ranks' skew out of setup, and ranks leaving the last
        // round early run teardown on the workers the rest still need.
        for (int k = 0; k < kRounds; ++k) {
          barrier(s.comm);
          const std::int64_t t1 = now_ns();
          Communicator c;
          {
            STACKBENCH_SPAN("call.core.comm_create");
            c = Communicator::create_from_group(s.group, kRoundTags[k]);
          }
          created[r].push_back(static_cast<double>(now_ns() - t1));
          const bool shape_ok =
              c.size() == kRanks && c.rank() == s.comm.rank();
          barrier(c);
          {
            STACKBENCH_SPAN("call.core.comm_free");
            c.free();
          }
          rounds[r].push_back(static_cast<double>(now_ns() - t1));
          t.check(shape_ok, "round communicator shape");
          t.op(3);
        }
        barrier(s.comm);
        t.op();
      }
      if (r == 0) {
        ThreadWatch::instance().sample();
      }
      if (probes) {
        layer_probes(s.comm, {.halo = true, .isend = true, .reduce = true},
                     4, a.seed, t);
        // agree floods every member, so at 1024 ranks one call is ~n^2
        // messages: probe agree and the checkpoint (whose commit vote is
        // an agree) on the first node's 32 ranks instead.
        if (p.node() == 0) {
          std::vector<int> members(kPpn);
          for (int i = 0; i < kPpn; ++i) members[static_cast<std::size_t>(i)] = i;
          Communicator nc = Communicator::create_from_group(
              s.group.incl(members), "stackbench.node0");
          layer_probes(nc, {.agree = true, .ckpt = true}, 4, a.seed, t);
          nc.free();
        }
      }
      STACKBENCH_SPAN("app.teardown");
      teardown(s);
    });
    if (tr != nullptr) tr->stop(cl.fabric());
  }
  out.cycle_s = static_cast<double>(now_ns() - t0) / 1e9;
  const std::int64_t ready = *std::max_element(ready_at.begin(), ready_at.end());
  out.setup_s = static_cast<double>(ready - t0) / 1e9;
  out.round_ns = worst_rank(rounds);
  for (int k = 0; k < kRounds; ++k) {
    std::vector<double> ranks;
    ranks.reserve(kRanks);
    for (const auto& v : created) ranks.push_back(v.at(static_cast<std::size_t>(k)));
    out.create_p90_ns.push_back(quantile(std::move(ranks), 0.9));
  }
  out.first_contact_ns = worst_rank(contact).at(0);
  out.first_comm_ns = worst_rank(first_comm).at(0);
  for (const Tally& t : tallies) rep.merge(t);
  return out;
}

}  // namespace

void run_startup(const Args& a, Report& rep) {
  use_scheduler("fibers");
  if (!a.trace) {
    std::vector<Cycle> cycles;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(a.seconds * 1e9);
    for (std::uint64_t i = 0;
         i < static_cast<std::uint64_t>(kBlocks) || now_ns() < deadline; ++i) {
      cycles.push_back(run_cycle(a, i, rep, nullptr, false));
    }
    // Every cycle is a fresh cluster, so per-cycle values are the blocks;
    // the per-round values are pooled over runs of consecutive cycles.
    const auto per_cycle = [&](double Cycle::*field, double scale) {
      return per_block(cycles, [&](const Cycle& c) { return c.*field * scale; });
    };
    const auto rounds_us = [&](std::vector<double> Cycle::*field, double q) {
      std::vector<std::vector<double>> groups(kBlocks);
      for (std::size_t i = 0; i < cycles.size(); ++i) {
        const std::vector<double>& v = cycles[i].*field;
        auto& g = groups[i * kBlocks / cycles.size()];
        g.insert(g.end(), v.begin(), v.end());
      }
      return per_block(groups, [&](const std::vector<double>& g) {
        return quantile(g, q) / 1e3;
      });
    };
    const std::size_t n = cycles.size();
    rep.e2e_blocks("setup_s", per_cycle(&Cycle::setup_s, 1), "s", n,
                   "32x32 cluster build to first communicator + one message");
    rep.e2e_blocks("lat_us.p50", rounds_us(&Cycle::round_ns, 0.5), "us",
                   n * kRounds,
                   "comm_create_ms.p50 x 1000: create_from_group + barrier + free "
                   "round, worst rank");
    // The tail is taken over ranks, not over rounds: a round's worst rank
    // waits out any stall of any carrier thread, so a high percentile over
    // rounds counts how often the host preempts a vCPU (the ledger line
    // below), while the rank tail of the median round does not.
    rep.e2e_blocks("lat_us.tail", rounds_us(&Cycle::create_p90_ns, 0.5), "us",
                   n * kRounds,
                   "create_from_group return, p90 over the 1024 ranks, median round");
    rep.e2e_blocks("lat2_us.p50", per_cycle(&Cycle::first_contact_ns, 1e-3),
                   "us", n,
                   "first ring sendrecv (lazy modex + exCID handshake), worst rank");
    rep.e2e_blocks("lat3_us.p50", per_cycle(&Cycle::first_comm_ns, 1e-3), "us",
                   n, "Session::init + group_from_pset + create_from_group, worst rank");
    rep.e2e_blocks("rate_per_s",
                   per_block(cycles, [](const Cycle& c) { return 1.0 / c.cycle_s; }),
                   "1/s", n, "whole start-to-teardown cycles per second");
    rep.line("round p90, worst rank = " +
             sig(quantile(rounds_us(&Cycle::round_ns, 0.9), 0.5)) +
             " us  [not a bounded metric: it follows host steal time]");
    rep.line("cluster build (Cluster ctor) = " +
             fmt(quantile(per_cycle(&Cycle::build_ms, 1), 0.5)) +
             " ms, median over cycles");
    rep.line("sim.fiber_workers = " + std::to_string(fiber_workers(kRanks)) +
             " (+ fabric pump)");
    return;
  }

  // Untraced cycles for the overhead baseline fill most of the time; one
  // traced cycle (plus probes) fits the trace rings.
  std::vector<double> base_rounds, builds;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(a.seconds / 2 * 1e9);
  for (std::uint64_t i = 0; i == 0 || now_ns() < deadline; ++i) {
    const Cycle c = run_cycle(a, i, rep, nullptr, false);
    base_rounds.insert(base_rounds.end(), c.round_ns.begin(), c.round_ns.end());
    builds.push_back(c.build_ms);
  }
  Tracing tr(1u << 19);
  const Cycle traced = run_cycle(a, builds.size(), rep, &tr, true);
  const Ledger l = tr.finish(rep);
  builds.push_back(traced.build_ms);

  LayerInputs in;
  in.cluster_build_ms = quantile(builds, 0.5);
  in.cluster_builds = builds.size();
  in.ranks_set_up = kRanks;
  const double off = quantile(base_rounds, 0.5);
  const double on = quantile(traced.round_ns, 0.5);
  in.overhead_ratio = off > 0 ? on / off : 0;
  in.overhead_base = "traced / untraced comm round p50 (worst rank) = " +
                     fmt(on / 1e3) + " / " + fmt(off / 1e3) + " us";
  report_layers(l, tr.window(), in, rep);
  print_ledger(l, rep);
}

}  // namespace stackbench
