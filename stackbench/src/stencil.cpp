// stencil workload: 16 ranks as 4 nodes x 4 ppn on fibers. Each step does a
// both-direction ring halo (4 KiB float64), an 8 B allreduce and a 64 KiB
// float64 allreduce; every kSaveEvery steps an RS(4,2) checkpoint of 256 KiB
// of state per rank. One restore at the end is compared bitwise.

#include <cstring>

#include "ops.hpp"
#include "probes.hpp"
#include "workload.hpp"

namespace stackbench {

namespace {

constexpr int kNodes = 4;
constexpr int kPpn = 4;
constexpr int kRanks = kNodes * kPpn;
constexpr std::size_t kStateDoubles = 32768;  ///< 256 KiB per rank
constexpr int kSaveEvery = 200;
constexpr int kSetups = 101;
constexpr std::size_t kWarmupSteps = 50;
constexpr int kBlocks = 20;

using PerRank = std::vector<std::vector<double>>;

struct Samples {
  PerRank step{kRanks}, halo{kRanks}, ar8{kRanks}, ar64{kRanks};
  PerRank save{kRanks}, barrier{kRanks}, agree{kRanks};
  std::int64_t loop_ns = 0;  ///< rank 0: first step to the last decision
  std::uint64_t steps = 0;
};

struct Plan {
  double budget_s = 0;
  std::uint64_t max_cycles = ~0ull;
  int steps_per_cycle = kSaveEvery;
  bool saves = true;
  bool probes = false;
};

void push(PerRank& v, int rank, std::int64_t ns) {
  v[static_cast<std::size_t>(rank)].push_back(static_cast<double>(ns));
}

void run_cluster(const Args& a, const Plan& plan, Samples& out, Report& rep,
                 Tracing* tr) {
  sim::Cluster cl{zero_opts(kNodes, kPpn)};
  std::vector<Tally> tallies(kRanks);
  if (tr != nullptr) tr->start(cl.fabric());
  cl.run([&](sim::Process& p) {
    const int r = p.rank();
    Tally& t = tallies[static_cast<std::size_t>(r)];
    Setup s;
    {
      STACKBENCH_SPAN("app.setup");
      s = session_setup("stackbench.stencil", a.seed, 3, t);
    }
    const Ring ring = ring_of(s.comm);
    {
      Halo h;
      SmallReduce sr;
      BigReduce big(a.seed);
      std::vector<double> state(kStateDoubles);
      for (std::size_t i = 0; i < state.size(); ++i) {
        state[i] = small_int(mix(a.seed, 0x57A7E, static_cast<std::uint64_t>(r), i));
      }
      std::vector<double> saved;
      ckpt::Checkpointer ck("stackbench.stencil", rs42());
      ck.register_dataset("state", state.data(), state.size() * sizeof(double));

      const std::int64_t start = now_ns();
      const std::int64_t deadline =
          start + static_cast<std::int64_t>(plan.budget_s * 1e9);
      std::uint64_t step = 0;
      {
        STACKBENCH_SPAN("app.steps");
        for (std::uint64_t cycle = 0;; ++cycle) {
          for (int k = 0; k < plan.steps_per_cycle; ++k, ++step) {
            halo_fill(h, ring, a.seed, step);
            small_fill(sr, ring, a.seed, step);
            big_fill(big, ring, a.seed, step);
            const std::int64_t t0 = now_ns();
            const std::int64_t th = halo_exchange(s.comm, ring, h);
            const std::int64_t t8 = allreduce_8b(s.comm, sr);
            const std::int64_t t64 = allreduce_64k(s.comm, big);
            push(out.step, r, now_ns() - t0);
            push(out.halo, r, th);
            push(out.ar8, r, t8);
            push(out.ar64, r, t64);
            halo_check(h, ring, a.seed, step, t);
            small_check(sr, ring, a.seed, step, t);
            big_check(big, ring, a.seed, step, t);
            // The state evolves from verified neighbour data.
            state[(step * 7919) % kStateDoubles] =
                h.from_left[step % kHaloDoubles] + sr.recv;
          }
          if (plan.saves) {
            push(out.barrier, r, barrier(s.comm));
            push(out.save, r, ckpt_save(ck, s.comm, t));
            saved = state;
          }
          // Rank 0's clock decides; agree() makes the decision uniform.
          const bool go = r != 0 || (now_ns() < deadline &&
                                     cycle + 1 < plan.max_cycles);
          std::uint64_t agreed = 0;
          push(out.agree, r, agree(s.comm, go ? ~0ull : ~1ull, agreed, t));
          if ((agreed & 1u) == 0) {
            break;
          }
        }
      }
      if (r == 0) {
        out.loop_ns = now_ns() - start;
        out.steps = step;
        ThreadWatch::instance().sample();
      }
      if (plan.probes) {
        layer_probes(s.comm, {.isend = true}, 16, a.seed, t);
      }
      if (plan.saves) {
        STACKBENCH_SPAN("app.restore");
        std::fill(state.begin(), state.end(), 0.0);
        ckpt::RestoreResult rr;
        {
          STACKBENCH_SPAN("call.ckpt.restore");
          rr = ck.restore(s.comm);
        }
        t.check(rr.epoch == ck.last_committed() && rr.adopted.empty(),
                "restore epoch");
        t.check(std::memcmp(state.data(), saved.data(),
                            state.size() * sizeof(double)) == 0,
                "restore is bitwise");
      }
    }
    STACKBENCH_SPAN("app.teardown");
    teardown(s);
  });
  if (tr != nullptr) tr->stop(cl.fabric());
  for (const Tally& t : tallies) rep.merge(t);
}

double p50_us(const PerRank& v, std::size_t skip = 0) {
  return quantile(after(worst_rank(v), skip), 0.5) / 1e3;
}

}  // namespace

void run_stencil(const Args& a, Report& rep) {
  use_scheduler("fibers");
  SetupTimes setups;
  repeat_setups(kNodes, kPpn, kSetups, a.seed, setups, rep);

  if (!a.trace) {
    std::vector<Samples> blocks(kBlocks);
    Plan plan;
    plan.budget_s = a.seconds / kBlocks;
    for (Samples& b : blocks) {
      run_cluster(a, plan, b, rep, nullptr);
    }
    std::size_t n_steps = 0, n_saves = 0;
    double save_ns = 0, loop_ns = 0;
    for (const Samples& b : blocks) {
      n_steps += b.step[0].size();
      n_saves += b.save[0].size();
      for (double v : worst_rank(b.save)) save_ns += v;
      loop_ns += static_cast<double>(b.loop_ns);
    }
    // Per-step series skip each fresh cluster's warm-up steps (plan
    // builds, first contacts); per-save series keep every save.
    const auto us = [&](const PerRank Samples::*field, double q,
                        std::size_t skip = kWarmupSteps) {
      return per_block(blocks, [&](const Samples& b) {
        return quantile(after(worst_rank(b.*field), skip), q) / 1e3;
      });
    };
    const auto typical = [](const std::vector<double>& v) {
      return fmt(quantile(v, 0.5));
    };
    rep.e2e_blocks("setup_s", setups.setup_s, "s", setups.setup_s.size(),
                   "4x4 cluster build to first communicator + one message; "
                   "blocks are single set-ups");
    rep.e2e_blocks("lat_us.p50", us(&Samples::step, 0.5), "us", n_steps,
                   "step_us.p50: one step, worst rank, save steps excluded");
    rep.e2e_blocks("lat_us.tail", us(&Samples::step, 0.95), "us", n_steps,
                   "step_us.p95 (a 1 s block has ~40 steps beyond it)");
    rep.e2e_blocks("lat2_us.p50", us(&Samples::save, 0.5, 0), "us", n_saves,
                   "ckpt_save_ms.p50 x 1000: one RS(4,2) save of 256 KiB/rank, worst rank");
    rep.e2e_blocks("lat3_us.p50", us(&Samples::ar64, 0.5), "us", n_steps,
                   "64 KiB float64 allreduce inside the step, worst rank");
    rep.e2e_blocks("rate_per_s",
                   per_block(blocks, [](const Samples& b) {
                     return static_cast<double>(b.steps) /
                            (static_cast<double>(b.loop_ns) / 1e9);
                   }),
                   "1/s", n_steps,
                   "steps per second over the whole loop, saves included");
    rep.line("step parts (worst rank p50): halo " +
             typical(us(&Samples::halo, 0.5)) + " us, 8 B allreduce " +
             typical(us(&Samples::ar8, 0.5)) + " us, barrier " +
             typical(us(&Samples::barrier, 0.5, 0)) + " us, agree " +
             typical(us(&Samples::agree, 0.5, 0)) + " us");
    rep.line("saves take " + fmt(100.0 * save_ns / loop_ns, 1) +
             "% of loop wall time (one save every " +
             std::to_string(kSaveEvery) + " steps)");
    rep.line("sim.fiber_workers = " + std::to_string(fiber_workers(kRanks)) +
             " (+ fabric pump)");
    return;
  }

  Samples base;
  Plan untraced;
  untraced.budget_s = a.seconds / 2;  // overhead baseline, most of the time
  untraced.steps_per_cycle = 100;
  untraced.saves = false;
  run_cluster(a, untraced, base, rep, nullptr);

  Tracing tr(1u << 18);
  Samples s;
  Plan traced;
  traced.budget_s = a.seconds;
  traced.max_cycles = 2;
  traced.steps_per_cycle = 100;
  traced.probes = true;
  run_cluster(a, traced, s, rep, &tr);
  const Ledger l = tr.finish(rep);

  LayerInputs in;
  in.cluster_build_ms = quantile(setups.build_ms, 0.5);
  in.cluster_builds = setups.build_ms.size();
  in.ranks_set_up = kRanks;
  // The first steps build collective plans and resolve peers.
  const double off = p50_us(base.step, kWarmupSteps);
  const double on = p50_us(s.step, kWarmupSteps);
  in.overhead_ratio = off > 0 ? on / off : 0;
  in.overhead_base = "traced / untraced step p50 (worst rank) = " + fmt(on) +
                     " / " + fmt(off) + " us";
  report_layers(l, tr.window(), in, rep);
  print_ledger(l, rep);
}

}  // namespace stackbench
