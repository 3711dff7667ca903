#include "workload.hpp"

#include "ops.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace stackbench {

sim::Cluster::Options zero_opts(int nodes, int ppn) {
  sim::Cluster::Options o;
  o.topo = {nodes, ppn};
  o.cost = base::CostModel::zero();
  return o;
}

void use_scheduler(const char* mode) {
  sim::register_scheduler_cvar();
  if (!obs::cvar_write("sim.scheduler", mode)) {
    throw Error(ErrClass::arg, std::string("unknown scheduler ") + mode);
  }
}

void repeat_setups(int nodes, int ppn, int count, std::uint64_t seed,
                   SetupTimes& out, Report& rep) {
  for (int i = 0; i < count; ++i) {
    std::vector<std::int64_t> ready_at(static_cast<std::size_t>(nodes * ppn));
    std::vector<Tally> tallies(static_cast<std::size_t>(nodes * ppn));
    const std::int64_t t0 = now_ns();
    sim::Cluster cl{zero_opts(nodes, ppn)};
    const std::int64_t built = now_ns();
    cl.run([&](sim::Process& p) {
      Tally& t = tallies[static_cast<std::size_t>(p.rank())];
      STACKBENCH_SPAN("app.setup");
      Setup s = session_setup("stackbench.setup", seed,
                              0x5E70 + static_cast<std::uint64_t>(i), t);
      ready_at[static_cast<std::size_t>(p.rank())] = s.ready_at_ns;
      if (p.rank() == 0) {
        ThreadWatch::instance().sample();
      }
      teardown(s);
    });
    const std::int64_t ready = *std::max_element(ready_at.begin(), ready_at.end());
    out.setup_s.push_back(static_cast<double>(ready - t0) / 1e9);
    out.build_ms.push_back(static_cast<double>(built - t0) / 1e6);
    for (const Tally& t : tallies) {
      rep.merge(t);
    }
  }
}

Tracing::Tracing(std::size_t ring_events) {
  obs::Tracer::instance().set_ring_capacity(ring_events);
}

void Tracing::start(fabric::Fabric& fab) {
  window_.open(&fab);
  obs::Tracer::instance().set_enabled(true);
}

void Tracing::stop(fabric::Fabric& fab) {
  obs::Tracer::instance().set_enabled(false);
  window_.close(&fab);
}

Ledger Tracing::finish(Report& rep) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const std::uint64_t evicted = tracer.evicted();
  Ledger l = build_ledger(tracer.collect());
  tracer.clear();
  rep.line("obs.trace_evicted = " + std::to_string(evicted) +
           " events  (ring capacity " + std::to_string(tracer.ring_capacity()) +
           " per thread)");
  if (evicted > 0) {
    rep.line("WARNING: trace rings wrapped; the ledger covers the newest events only");
  }
  return l;
}

namespace {
double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
std::string base_of(std::uint64_t num, const std::string& what,
                    std::uint64_t den, const std::string& den_name) {
  return "= " + what + " " + std::to_string(num) + " / " + den_name + " " +
         std::to_string(den);
}
}  // namespace

void report_layers(const Ledger& l, const TraceWindow& w,
                   const LayerInputs& in, Report& rep) {
  rep.line("--- per-layer metrics (traced windows) ---");
  const auto span_p50 = [&](const char* metric, const char* span, double scale,
                            const char* unit) {
    rep.layer(metric, l.p50_ns(span) / scale, unit,
              std::string("p50 of ") + span + " spans, n=" +
                  std::to_string(l.count(span)));
  };
  const std::uint64_t calls = l.count_prefix("call.");
  const std::uint64_t coll_ops = l.count_prefix("call.coll.");
  const std::uint64_t packets = w.packets();

  // sim
  rep.layer("sim.fiber_switches_per_op",
            per(w.delta("sim.fiber_switches"), calls), "count",
            base_of(w.delta("sim.fiber_switches"), "switches", calls,
                    "public-API calls"));
  rep.layer("sim.cluster_build_ms", in.cluster_build_ms, "ms",
            "median Cluster constructor, n=" +
                std::to_string(in.cluster_builds));
  // fabric (send_8b/64k come from the reference probes)
  rep.layer("fabric.acks_per_msg", per(w.delta("fabric.acks"), packets),
            "count",
            base_of(w.delta("fabric.acks"), "acks", packets,
                    "delivered packets"));
  for (const char* c : {"fabric.retransmits", "fabric.rto_escalations",
                        "fabric.payload_copies"}) {
    rep.layer(c, static_cast<double>(w.delta(c)), "count",
              "delta over " + std::to_string(packets) + " delivered packets");
  }
  rep.layer("fabric.pool_hit_pct",
            static_cast<double>(
                obs::pvar_read_gauge("fabric.pool_hit_rate").value_or(0)),
            "%", "fabric.pool_hit_rate gauge, process-wide");
  // core
  span_p50("core.isend_post_ns", "call.core.isend", 1.0, "ns");
  span_p50("core.halo_us.p50", "call.core.halo", 1e3, "us");
  span_p50("core.session_init_ms", "call.core.session_init", 1e6, "ms");
  span_p50("core.group_from_pset_ms", "call.core.group_from_pset", 1e6, "ms");
  span_p50("core.comm_create_ms", "call.core.comm_create", 1e6, "ms");
  span_p50("core.comm_free_ms", "call.core.comm_free", 1e6, "ms");
  rep.layer("core.pml.match_bin_hits_per_msg",
            per(w.delta("pml.match_bin_hits"), packets), "count",
            base_of(w.delta("pml.match_bin_hits"), "bin hits", packets,
                    "delivered packets"));
  rep.layer("core.pml.wildcard_scans",
            static_cast<double>(w.delta("pml.wildcard_scans")), "count",
            "delta over the traced windows");
  // pmix
  rep.layer("pmix.modex_lazy_fetches_per_rank",
            per(w.delta("pmix.modex_lazy_fetches"), in.ranks_set_up), "count",
            base_of(w.delta("pmix.modex_lazy_fetches"), "fetches",
                    in.ranks_set_up, "rank set-ups"));
  rep.layer("pmix.modex_cache_hits_per_rank",
            per(w.delta("pmix.modex_cache_hits"), in.ranks_set_up), "count",
            base_of(w.delta("pmix.modex_cache_hits"), "hits", in.ranks_set_up,
                    "rank set-ups"));
  // coll
  span_p50("coll.allreduce_8b_us.p50", "call.coll.allreduce_8b", 1e3, "us");
  span_p50("coll.allreduce_64k_us.p50", "call.coll.allreduce_64k", 1e3, "us");
  span_p50("coll.barrier_us.p50", "call.coll.barrier", 1e3, "us");
  rep.layer("coll.shm_publishes_per_op",
            per(w.delta("coll.shm_publishes"), coll_ops), "count",
            base_of(w.delta("coll.shm_publishes"), "publishes", coll_ops,
                    "rank-level collective calls"));
  rep.layer("coll.wire_sends_per_op", per(w.delta("coll.wire_sends"), coll_ops),
            "count",
            base_of(w.delta("coll.wire_sends"), "wire sends", coll_ops,
                    "rank-level collective calls"));
  for (const char* c : {"coll.payload_copies", "coll.plan_builds"}) {
    rep.layer(c, static_cast<double>(w.delta(c)), "count",
              "delta over " + std::to_string(coll_ops) +
                  " rank-level collective calls");
  }
  // ft
  span_p50("ft.agree_us.p50", "call.ft.agree", 1e3, "us");
  // ckpt
  rep.layer("ckpt.redundancy_bytes_per_save",
            per(w.delta("ckpt.redundancy_bytes"), w.delta("ckpt.saves")), "B",
            base_of(w.delta("ckpt.redundancy_bytes"), "bytes",
                    w.delta("ckpt.saves"), "rank-saves"));
  const auto enc = obs::pvar_read_histogram("ckpt.encode_ns");
  rep.layer("ckpt.encode_ns.p50", enc ? enc->p50 : 0.0, "ns",
            "ckpt.encode_ns histogram, n=" +
                std::to_string(enc ? enc->count : 0));
  // obs
  rep.layer("obs.trace_overhead_ratio", in.overhead_ratio, "ratio",
            in.overhead_base);
  // self-time shares
  for (const auto& [layer, pct] : layer_shares(l, "app.probes")) {
    rep.layer("ledger." + layer + ".self_pct", pct, "%",
              "share of traced workload self time (probes excluded)");
  }
}

}  // namespace stackbench
