// Unit tests for src/obs: ring-buffer tracing (wraparound eviction,
// concurrent writers), HDR histogram math, the pvar/cvar tool-variable
// namespace, the trace JSON schema (golden file), and the SESSMPI_T_* C
// API mirror. Runs under the `obs` ctest label so the sanitizer jobs can
// target it; the concurrent-writer test is the TSan witness for the
// single-writer ring discipline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sessmpi/base/cost_model.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/capi.hpp"
#include "sessmpi/ckpt/planner.hpp"
#include "sessmpi/fabric/fabric.hpp"
#include "sessmpi/fabric/packet.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/sampler.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/trace_json.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/sim/cluster.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi::obs {
namespace {

/// Every test drives the one process-wide tracer; start and end clean so
/// tests compose in any order.
class TracerGuard {
 public:
  TracerGuard() {
    Tracer& t = Tracer::instance();
    saved_capacity_ = t.ring_capacity();
    t.set_enabled(false);
    t.clear();
  }
  ~TracerGuard() {
    Tracer& t = Tracer::instance();
    t.set_enabled(false);
    t.set_ring_capacity(saved_capacity_);
    t.clear();
    Tracer::reset_track_skews();
  }

 private:
  std::size_t saved_capacity_ = 0;
};

std::vector<Event> events_named(const std::vector<Event>& all,
                                const char* name) {
  std::vector<Event> out;
  for (const Event& ev : all) {
    if (std::string(ev.name) == name) out.push_back(ev);
  }
  return out;
}

// --- tracing ---------------------------------------------------------------

// Exercises the OBS_* macros themselves, so it only exists in builds where
// they expand to probes (with -DSESSMPI_OBS_TRACING=OFF they are (void)0
// and the right observable behaviour is "nothing", covered below).
#if !defined(SESSMPI_OBS_DISABLED)
TEST(ObsTrace, SpanEmitsMatchedBeginEnd) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  {
    OBS_SPAN_ARG("obs_test.span", "test", 42);
    OBS_INSTANT("obs_test.inside", "test");
  }
  t.set_enabled(false);

  const auto all = t.collect();
  const auto spans = events_named(all, "obs_test.span");
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].phase, Phase::begin);
  EXPECT_EQ(spans[0].arg, 42u);
  EXPECT_EQ(spans[1].phase, Phase::end);
  EXPECT_LE(spans[0].ts_ns, spans[1].ts_ns);

  const auto inside = events_named(all, "obs_test.inside");
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_EQ(inside[0].phase, Phase::instant);
  // Same thread -> same tid; the instant falls inside the span.
  EXPECT_EQ(inside[0].tid, spans[0].tid);
  EXPECT_GE(inside[0].ts_ns, spans[0].ts_ns);
  EXPECT_LE(inside[0].ts_ns, spans[1].ts_ns);
}
#endif  // !SESSMPI_OBS_DISABLED

TEST(ObsTrace, DisabledEmitsNothing) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  ASSERT_FALSE(t.enabled());
  OBS_SPAN("obs_test.dead", "test");
  OBS_INSTANT("obs_test.dead", "test");
  t.instant("obs_test.dead", "test");
  EXPECT_TRUE(events_named(t.collect(), "obs_test.dead").empty());
}

TEST(ObsTrace, ToggleMidSpanEmitsNoUnmatchedEnd) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  {
    Span s("obs_test.late", "test");  // constructed while disabled
    t.set_enabled(true);
  }  // destructor must not emit a dangling "E"
  t.set_enabled(false);
  EXPECT_TRUE(events_named(t.collect(), "obs_test.late").empty());
}

TEST(ObsTrace, RingWraparoundEvictsOldest) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  constexpr std::size_t kCap = 8;
  constexpr std::uint64_t kEmit = 20;
  t.set_ring_capacity(kCap);  // applies to rings created after this call
  t.set_enabled(true);
  // A fresh thread gets a fresh (small) ring regardless of what this
  // thread's ring was created with.
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kEmit; ++i) {
      t.instant("obs_test.wrap", "test", i);
    }
  });
  writer.join();
  t.set_enabled(false);

  const auto wrapped = events_named(t.collect(), "obs_test.wrap");
  ASSERT_EQ(wrapped.size(), kCap);
  std::set<std::uint64_t> args;
  for (const Event& ev : wrapped) args.insert(ev.arg);
  // Oldest events evicted: exactly the newest kCap survive.
  for (std::uint64_t i = kEmit - kCap; i < kEmit; ++i) {
    EXPECT_TRUE(args.count(i)) << "expected surviving arg " << i;
  }
  EXPECT_EQ(t.evicted(), kEmit - kCap);
}

TEST(ObsTrace, ConcurrentWritersEachKeepTheirOwnRing) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 1000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&t, w] {
      Tracer::set_thread_track(w);
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        t.instant("obs_test.mt", "test", i);
      }
    });
  }
  for (auto& th : writers) th.join();
  t.set_enabled(false);  // writers joined: collection is race-free

  const auto events = events_named(t.collect(), "obs_test.mt");
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  // Each writer's ring preserved its own events: per tid, args 0..N-1.
  std::map<std::uint32_t, std::set<std::uint64_t>> by_tid;
  std::set<std::int32_t> tracks;
  for (const Event& ev : events) {
    by_tid[ev.tid].insert(ev.arg);
    tracks.insert(ev.track);
  }
  ASSERT_EQ(by_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, args] : by_tid) {
    EXPECT_EQ(args.size(), kPerThread) << "tid " << tid;
  }
  EXPECT_EQ(tracks.size(), static_cast<std::size_t>(kThreads));
}

TEST(ObsTrace, AsyncEventsCarryExplicitTrackAndId) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  t.async_begin(3, "obs_test.flow", "test", 0xabcdu, 7);
  t.async_end(3, "obs_test.flow", "test", 0xabcdu);
  t.set_enabled(false);

  const auto flow = events_named(t.collect(), "obs_test.flow");
  ASSERT_EQ(flow.size(), 2u);
  EXPECT_EQ(flow[0].phase, Phase::async_begin);
  EXPECT_EQ(flow[1].phase, Phase::async_end);
  for (const Event& ev : flow) {
    EXPECT_EQ(ev.track, 3);
    EXPECT_EQ(ev.id, 0xabcdu);
  }
}

// --- flow events / freeze --------------------------------------------------

#if !defined(SESSMPI_OBS_DISABLED)
TEST(ObsFlow, FlowEventsShareTheWireCarriedId) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  const std::uint64_t id = Tracer::next_span_id();
  ASSERT_NE(id, 0u);
  EXPECT_GT(Tracer::next_span_id(), id);  // process-unique, monotone
  OBS_FLOW_START("obs_test.flow", "test", id, 64);
  OBS_FLOW_STEP("obs_test.flow", "test", id);
  OBS_FLOW_END("obs_test.flow", "test", id);
  t.set_enabled(false);

  const auto flow = events_named(t.collect(), "obs_test.flow");
  ASSERT_EQ(flow.size(), 3u);
  EXPECT_EQ(flow[0].phase, Phase::flow_start);
  EXPECT_EQ(flow[0].arg, 64u);
  EXPECT_EQ(flow[1].phase, Phase::flow_step);
  EXPECT_EQ(flow[2].phase, Phase::flow_end);
  for (const Event& ev : flow) {
    EXPECT_EQ(ev.id, id);
  }
}
#endif  // !SESSMPI_OBS_DISABLED

TEST(ObsFlow, ScopedFlowContextNestsAndRestores) {
  ASSERT_EQ(Tracer::flow_context(), 0u);
  {
    ScopedFlowContext outer(11);
    EXPECT_EQ(Tracer::flow_context(), 11u);
    {
      ScopedFlowContext inner(22);
      EXPECT_EQ(Tracer::flow_context(), 22u);
    }
    EXPECT_EQ(Tracer::flow_context(), 11u);
  }
  EXPECT_EQ(Tracer::flow_context(), 0u);
}

TEST(ObsFlow, FreezeQuiescesAConcurrentWriter) {
  // TSan witness for the flight-recorder stop-the-world: a writer thread
  // hammers its ring while the main thread freezes, reads, and thaws.
  // After freeze() returns, the ring contents must be stable even though
  // the writer is still running (it observes enabled == false).
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> emitted{0};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      t.instant("obs_test.freeze", "test");
      emitted.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // collect() is only safe against a live writer *after* freeze(), so wait
  // on the writer's own progress counter, not on the ring.
  while (emitted.load(std::memory_order_relaxed) < 100) {
    std::this_thread::yield();
  }

  const bool was = t.freeze();
  EXPECT_TRUE(was);
  EXPECT_FALSE(t.enabled());
  const auto n1 = events_named(t.collect(), "obs_test.freeze").size();
  const auto n2 = events_named(t.collect(), "obs_test.freeze").size();
  EXPECT_EQ(n1, n2) << "ring moved while frozen";

  t.thaw(/*re_enable=*/true);
  EXPECT_TRUE(t.enabled());
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  t.set_enabled(false);
  // A freeze of a disabled tracer reports the prior state for thaw().
  EXPECT_FALSE(t.freeze());
  t.thaw(false);
  EXPECT_FALSE(t.enabled());
}

// --- histograms ------------------------------------------------------------

TEST(ObsHist, SmallValuesAreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 16; ++v) {
    // Each value below 16 owns its own bucket whose upper edge is itself.
    EXPECT_EQ(Histogram::bucket_upper(Histogram::bucket_of(v)), v) << v;
    h.record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
}

TEST(ObsHist, BucketRelativeErrorBounded) {
  // HDR invariants: bucket_of is monotone, and the bucket upper edge
  // over-reports any member value by at most 1/16 (one sub-bucket).
  std::size_t prev = 0;
  for (std::uint64_t v : {1ull,        15ull,   16ull,        17ull,
                          100ull,      1000ull, 4096ull,      65535ull,
                          1ull << 20,  123456789ull, 1ull << 40}) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_GE(b, prev) << "bucket_of not monotone at " << v;
    prev = b;
    const std::uint64_t upper = Histogram::bucket_upper(b);
    EXPECT_GE(upper, v);
    EXPECT_LE(static_cast<double>(upper - v), static_cast<double>(v) / 16.0 + 1)
        << "relative error too large for " << v;
  }
}

TEST(ObsHist, PercentilesWithinHdrError) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  const struct {
    double q;
    double exact;
  } cases[] = {{0.0, 1}, {0.5, 500}, {0.9, 900}, {0.99, 990}, {1.0, 1000}};
  for (const auto& c : cases) {
    const double got = h.percentile(c.q);
    EXPECT_GE(got, c.exact) << "q=" << c.q;
    EXPECT_LE(got, c.exact * (1.0 + 1.0 / 16.0) + 1) << "q=" << c.q;
  }
  EXPECT_DOUBLE_EQ(Histogram().percentile(0.5), 0.0);  // empty -> 0
}

TEST(ObsHist, ResetZeroesEverything) {
  Histogram h;
  h.record(123);
  h.record(456);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(ObsHist, CountersResetAlsoResetsRegisteredHistograms) {
  // The base::Counters reset hook (registered on first histogram creation)
  // must zero histograms too: one reset clears every pvar.
  Histogram& h = histogram("obs_test.reset_hist");
  base::counters().add("obs_test.reset_counter", 5);
  h.record(77);
  ASSERT_GE(h.count(), 1u);

  base::counters().reset();

  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(base::counters().value("obs_test.reset_counter"), 0u);
}

// --- pvars / cvars ---------------------------------------------------------

TEST(ObsTvar, PvarListUnifiesCountersAndHistograms) {
  base::counters().add("obs_test.pvar_counter", 3);
  histogram("obs_test.pvar_hist").record(42);

  const auto pvars = pvar_list();
  ASSERT_TRUE(std::is_sorted(
      pvars.begin(), pvars.end(),
      [](const PvarDesc& a, const PvarDesc& b) { return a.name < b.name; }));
  auto find = [&](const std::string& name) -> const PvarDesc* {
    for (const auto& p : pvars) {
      if (p.name == name) return &p;
    }
    return nullptr;
  };
  const PvarDesc* c = find("obs_test.pvar_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->cls, PvarClass::counter);
  const PvarDesc* hd = find("obs_test.pvar_hist");
  ASSERT_NE(hd, nullptr);
  EXPECT_EQ(hd->cls, PvarClass::histogram);

  EXPECT_EQ(pvar_read_counter("obs_test.pvar_counter").value_or(0), 3u);
  const auto summary = pvar_read_histogram("obs_test.pvar_hist");
  ASSERT_TRUE(summary.has_value());
  EXPECT_GE(summary->count, 1u);
  EXPECT_GE(summary->p99, 42.0);

  EXPECT_FALSE(pvar_read_counter("obs_test.no_such_pvar").has_value());
  EXPECT_FALSE(pvar_read_histogram("obs_test.no_such_pvar").has_value());
  EXPECT_FALSE(pvar_reset("obs_test.no_such_pvar"));

  EXPECT_TRUE(pvar_reset("obs_test.pvar_counter"));
  EXPECT_EQ(pvar_read_counter("obs_test.pvar_counter").value_or(99), 0u);
  EXPECT_TRUE(pvar_reset("obs_test.pvar_hist"));
  EXPECT_EQ(pvar_read_histogram("obs_test.pvar_hist")->count, 0u);
}

TEST(ObsTvar, BuiltinCvarsControlTheTracer) {
  TracerGuard guard;
  const auto cvars = cvar_list();
  auto has = [&](const std::string& name) {
    return std::any_of(cvars.begin(), cvars.end(),
                       [&](const CvarDesc& c) { return c.name == name; });
  };
  EXPECT_TRUE(has("obs.trace.enabled"));
  EXPECT_TRUE(has("obs.trace.ring_events"));

  EXPECT_EQ(cvar_read("obs.trace.enabled").value_or("?"), "0");
  EXPECT_TRUE(cvar_write("obs.trace.enabled", "1"));
  EXPECT_TRUE(Tracer::instance().enabled());
  EXPECT_EQ(cvar_read("obs.trace.enabled").value_or("?"), "1");
  EXPECT_TRUE(cvar_write("obs.trace.enabled", "0"));
  EXPECT_FALSE(Tracer::instance().enabled());

  EXPECT_TRUE(cvar_write("obs.trace.ring_events", "4096"));
  EXPECT_EQ(cvar_read("obs.trace.ring_events").value_or("?"), "4096");
  EXPECT_EQ(Tracer::instance().ring_capacity(), 4096u);
  EXPECT_FALSE(cvar_write("obs.trace.ring_events", "not_a_number"));
  EXPECT_FALSE(cvar_write("obs.trace.ring_events", "0"));  // below floor
  EXPECT_EQ(Tracer::instance().ring_capacity(), 4096u);    // unchanged

  EXPECT_FALSE(cvar_read("obs.no_such_cvar").has_value());
  EXPECT_FALSE(cvar_write("obs.no_such_cvar", "1"));
}

TEST(ObsTvar, CvarInventoryIsOneSettingPerLayerThatReadsIt) {
  // Touch every layer that could register a cvar: a two-node cluster
  // (fabric, ECN marker) running a collective (coll), the checkpoint
  // planner and the scheduler. What is left in the MPI_T namespace is
  // exactly the settings some run flips; every other setting has one
  // source, the config struct of the layer that uses it (DESIGN.md §11).
  sim::register_scheduler_cvar();
  (void)ckpt::planner();
  sim::Cluster::Options o;
  o.topo = {2, 1};
  o.cost = base::CostModel::zero();
  {
    sim::Cluster cluster{o};
    cluster.run([](sim::Process&) {
      init();
      std::int64_t one = 1;
      std::int64_t sum = 0;
      comm_world().allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
      EXPECT_EQ(sum, 2);
      finalize();
    });
  }
  std::set<std::string> names;
  for (const CvarDesc& c : cvar_list()) {
    names.insert(c.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{
                       "coll.algorithm", "obs.metrics.period_ms",
                       "obs.postmortem.dir", "obs.trace.enabled",
                       "obs.trace.ring_events", "sim.scheduler"}));
}

TEST(ObsTvar, CongestionControlGaugesAndCountersAreWired) {
  // The §17 pvars: fabric.cwnd (mean congestion window) and
  // fabric.rail_imbalance_pct (striped-byte spread) are registered gauges,
  // and the fabric.fast_retransmits counter mirrors the Fabric accessor.
  fabric::ReliabilityConfig rel;
  rel.tick_ns = 100'000;
  rel.rto_base_ns = 500'000;
  rel.rto_cap_ns = 2'000'000;
  rel.max_retries = 100;
  fabric::CcConfig cc;
  cc.rails = 4;
  cc.stripe_threshold = 2048;
  rel.cc = cc;
  fabric::Fabric f{base::Topology{1, 2}, base::CostModel::zero(), rel};

  const std::uint64_t fast_before =
      base::counters().value("fabric.fast_retransmits");
  const std::uint64_t fabric_fast_before = f.fast_retransmits();
  // Seeded 10% loss over windowed bulk traffic: enough packets in flight
  // behind any hole that the SACK/dup-ack path must fire.
  auto n = std::make_shared<std::atomic<std::uint64_t>>(0);
  f.set_drop_filter([n](const fabric::Packet&) {
    std::uint64_t x = 0x0b5 + 0x9e3779b97f4a7c15ull *
                                  (n->fetch_add(1, std::memory_order_relaxed) + 1);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return static_cast<double>(x >> 11) * 0x1.0p-53 < 0.1;
  });
  for (int i = 0; i < 100; ++i) {
    fabric::Packet p;
    p.kind = fabric::PacketKind::rndv_data;
    p.src_rank = 0;
    p.dst_rank = 1;
    p.token = static_cast<std::uint64_t>(i + 1);
    p.payload.resize(4096);  // striped 4 ways, 1 KiB per rail
    f.send(std::move(p));
  }
  ASSERT_TRUE(f.quiesce(std::chrono::seconds{60}));
  f.set_drop_filter(nullptr);

  // Gauges exist and read live values: a per-flow window within the
  // configured bounds, and a rail spread that is a percentage.
  const auto cwnd = pvar_read_gauge("fabric.cwnd");
  ASSERT_TRUE(cwnd.has_value());
  EXPECT_GE(*cwnd, cc.min_cwnd);
  EXPECT_LE(*cwnd, cc.max_cwnd);
  const auto imbalance = pvar_read_gauge("fabric.rail_imbalance_pct");
  ASSERT_TRUE(imbalance.has_value());
  EXPECT_LE(*imbalance, 100u);

  // The counter pvar and the accessor tell the same story.
  const std::uint64_t fast = f.fast_retransmits() - fabric_fast_before;
  EXPECT_GT(fast, 0u);
  EXPECT_EQ(base::counters().value("fabric.fast_retransmits") - fast_before,
            fast);
}

// --- JSON schema -----------------------------------------------------------

std::vector<Event> golden_events() {
  // Field order: {name, cat, ts_ns, id, arg, arg2, track, tid, phase}.
  std::vector<Event> evs(10);
  evs[0] = {"pml.send", "core", 1234567, 0, 8, 0, 3, 1, Phase::begin};
  evs[1] = {"pml.send", "core", 1240000, 0, 0, 0, 3, 1, Phase::end};
  evs[2] = {"ft.revoke", "ft", 1300000, 0, 0, 0, 3, 1, Phase::instant};
  evs[3] = {"fabric.inflight", "fabric", 1, 0xdeadbeef,
            7,                 0,        3, 2,
            Phase::async_begin};
  // Two-arg events (satellite: flow-level trace polish): a retransmit span
  // carrying bytes in v2, and an ack flush carrying the SACK summary in v2.
  evs[4] = {"fabric.retransmit", "fabric", 2000, 0xdeadbeef,
            7,                   4150,     3,    2,
            Phase::async_begin};
  evs[5] = {"fabric.ack.flush", "fabric",
            2100,               0,
            41,                 (3ull << 48) | 55,
            3,                  2,
            Phase::instant};
  // Checkpoint spans: the encode (snapshot + redundancy) duration span on
  // the rank thread, and the async drain span the background drainer
  // closes — id = ((track+1) << 32) | epoch, v = epoch, v2 = blob bytes.
  evs[6] = {"ckpt.encode", "ckpt", 3000000, 0, 0, 0, 3, 1, Phase::begin};
  evs[7] = {"ckpt.encode", "ckpt", 3400000, 0, 0, 0, 3, 1, Phase::end};
  evs[8] = {"ckpt.drain", "ckpt", 3500000, (4ull << 32) | 7,
            7,            4242,   3,       2,
            Phase::async_begin};
  evs[9] = {"ckpt.drain", "ckpt", 4000000, (4ull << 32) | 7,
            0,            0,      3,       2,
            Phase::async_end};
  // Causal flow triplet (tentpole: cross-rank causality): the 's' edge out
  // of a sending slice, a 't' hop (a revoke re-flood), and the 'f' edge
  // into the matching slice, all sharing the wire-carried span id.
  evs.resize(13);
  evs[10] = {"pml.msg", "core", 4100000, 0x1234, 16, 0, 3, 1,
             Phase::flow_start};
  evs[11] = {"ft.revoke", "ft", 4200000, 0x1234, 0, 0, 3, 1,
             Phase::flow_step};
  evs[12] = {"pml.msg", "core", 4300000, 0x1234, 0, 0, 3, 2, Phase::flow_end};
  // Congestion-control instants (DESIGN.md §17): a CE mark on a sequenced
  // packet (v = seq), the sender's ECE-driven multiplicative decrease
  // (v = new cwnd in packets), a SACK-triggered fast retransmit (v = seq),
  // a striped message's reassembly completing (v = total bytes), and a
  // tail-loss probe (v = probed seq).
  evs.resize(18);
  evs[13] = {"fabric.ecn.mark", "fabric", 4400000, 0, 17, 0, 3, 2,
             Phase::instant};
  evs[14] = {"fabric.ecn.decrease", "fabric", 4500000, 0, 12, 0, 3, 2,
             Phase::instant};
  evs[15] = {"fabric.fast_retx", "fabric", 4600000, 0, 18, 0, 3, 2,
             Phase::instant};
  evs[16] = {"fabric.stripe.assembled", "fabric", 4700000, 0, 9999, 0, 3, 2,
             Phase::instant};
  evs[17] = {"fabric.tlp_probe", "fabric", 4800000, 0, 21, 0, 3, 2,
             Phase::instant};
  return evs;
}

TEST(ObsJson, TraceFileMatchesGoldenSchema) {
  std::ostringstream os;
  write_trace_file(os, golden_events(), /*pid=*/3, /*clock_ns_offset=*/42,
                   /*evicted=*/1);

  const std::string golden_path =
      std::string(SESSMPI_OBS_TEST_DATA_DIR) + "/golden_trace.json";
  std::ifstream is(golden_path);
  ASSERT_TRUE(is) << "missing golden file " << golden_path;
  std::stringstream want;
  want << is.rdbuf();
  EXPECT_EQ(os.str(), want.str())
      << "trace JSON schema drifted from tests/obs/golden_trace.json -- "
         "update the golden only on a deliberate format change";
}

TEST(ObsJson, ParseRoundTripsTheWriter) {
  std::ostringstream os;
  write_trace_file(os, golden_events(), 3, /*clock_ns_offset=*/1000,
                   /*evicted=*/0);
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_json_rt").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/roundtrip.trace.json";
  {
    std::ofstream f(path, std::ios::trunc);
    f << os.str();
  }

  const auto parsed = parse_trace_file(path);
  ASSERT_EQ(parsed.size(), 18u);
  EXPECT_EQ(parsed[0].name, "pml.send");
  EXPECT_EQ(parsed[0].cat, "core");
  EXPECT_EQ(parsed[0].ph, 'B');
  // 1234567 ns + 1000 ns offset = 1235.567 us.
  EXPECT_NEAR(parsed[0].ts_us, 1235.567, 1e-9);
  EXPECT_EQ(parsed[0].pid, 3);
  EXPECT_EQ(parsed[0].arg, 8u);
  EXPECT_EQ(parsed[0].arg2, 0u);
  EXPECT_EQ(parsed[2].ph, 'i');
  EXPECT_TRUE(parsed[3].has_id);
  EXPECT_EQ(parsed[3].id, 0xdeadbeefu);
  EXPECT_EQ(parsed[3].ph, 'b');
  // v/v2 pairs round-trip: retransmit carries seq + bytes, ack flush
  // carries cumulative ack + SACK summary.
  EXPECT_EQ(parsed[4].arg, 7u);
  EXPECT_EQ(parsed[4].arg2, 4150u);
  EXPECT_EQ(parsed[5].arg, 41u);
  EXPECT_EQ(parsed[5].arg2, (3ull << 48) | 55);
  // Checkpoint spans: encode is a plain duration pair with no args, and
  // the drain async pair round-trips the ((track+1)<<32)|epoch id plus
  // the epoch/bytes payload on the open edge.
  EXPECT_EQ(parsed[6].ph, 'B');
  EXPECT_FALSE(parsed[6].has_id);
  EXPECT_EQ(parsed[7].ph, 'E');
  EXPECT_EQ(parsed[8].ph, 'b');
  EXPECT_TRUE(parsed[8].has_id);
  EXPECT_EQ(parsed[8].id, (4ull << 32) | 7);
  EXPECT_EQ(parsed[8].arg, 7u);
  EXPECT_EQ(parsed[8].arg2, 4242u);
  EXPECT_EQ(parsed[9].ph, 'e');
  EXPECT_EQ(parsed[9].id, (4ull << 32) | 7);
  // Flow events round-trip their shared correlation id through the hex
  // "id" field, exactly like async events.
  EXPECT_EQ(parsed[10].ph, 's');
  EXPECT_TRUE(parsed[10].has_id);
  EXPECT_EQ(parsed[10].id, 0x1234u);
  EXPECT_EQ(parsed[10].arg, 16u);
  EXPECT_EQ(parsed[11].ph, 't');
  EXPECT_EQ(parsed[12].ph, 'f');
  EXPECT_EQ(parsed[12].id, 0x1234u);
  // Congestion-control instants round-trip their single-value payloads.
  EXPECT_EQ(parsed[13].name, "fabric.ecn.mark");
  EXPECT_EQ(parsed[13].ph, 'i');
  EXPECT_EQ(parsed[13].arg, 17u);
  EXPECT_EQ(parsed[15].name, "fabric.fast_retx");
  EXPECT_EQ(parsed[16].name, "fabric.stripe.assembled");
  EXPECT_EQ(parsed[16].arg, 9999u);
  EXPECT_EQ(parsed[17].name, "fabric.tlp_probe");
  EXPECT_EQ(parsed[17].arg, 21u);
}

TEST(ObsJson, ParseRejectsNonTraceFile) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "not_a_trace.json")
          .string();
  {
    std::ofstream f(path, std::ios::trunc);
    f << "{\"counters\": {}}\n";
  }
  EXPECT_THROW(parse_trace_file(path), std::exception);
  EXPECT_THROW(parse_trace_file(path + ".missing"), std::exception);
}

TEST(ObsJson, RankTracesSplitByTrackAndMergeRebased) {
  // Synthetic cross-layer trace: two ranks plus one unattributed runtime
  // event, exactly what a bench --trace run produces.
  std::vector<Event> evs(5);
  evs[0] = {"comm.create_from_group", "core", 5000, 0, 2, 0,
            0,                        1,      Phase::begin};
  evs[1] = {"comm.create_from_group", "core", 9000, 0, 0, 0,
            0,                        1,      Phase::end};
  evs[2] = {"pmix.fence", "pmix", 6000, 0, 2, 0, 1, 2, Phase::begin};
  evs[3] = {"pmix.fence", "pmix", 8000, 0, 0, 0, 1, 2, Phase::end};
  evs[4] = {"fabric.tick", "fabric", 7000, 0, 0, 0, -1, 3, Phase::instant};

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_rank_traces")
          .string();
  const auto paths = write_rank_traces(dir, "unit", evs);
  ASSERT_EQ(paths.size(), 3u);  // rank0, rank1, runtime
  EXPECT_NE(paths[0].find("unit.rank0.trace.json"), std::string::npos);
  EXPECT_NE(paths[1].find("unit.rank1.trace.json"), std::string::npos);
  EXPECT_NE(paths[2].find("unit.runtime.trace.json"), std::string::npos);

  const std::string merged_path = dir + "/merged.trace.json";
  std::size_t merged = 0;
  {
    std::ofstream out(merged_path, std::ios::trunc);
    merged = merge_traces(paths, out);
  }
  EXPECT_EQ(merged, evs.size());

  const auto parsed = parse_trace_file(merged_path);
  ASSERT_EQ(parsed.size(), evs.size());
  // Earliest event rebased to t=0; order is by timestamp.
  EXPECT_EQ(parsed[0].name, "comm.create_from_group");
  EXPECT_NEAR(parsed[0].ts_us, 0.0, 1e-9);
  EXPECT_NEAR(parsed[4].ts_us, 4.0, 1e-9);  // 9000ns - 5000ns
  std::set<int> pids;
  for (const auto& ev : parsed) pids.insert(ev.pid);
  EXPECT_EQ(pids, (std::set<int>{0, 1, kRuntimeTrackPid}));
}

// --- clock skew round trip -------------------------------------------------

#if !defined(SESSMPI_OBS_DISABLED)
TEST(ObsClockSkew, InjectedSkewRoundTripsThroughMergeAlignment) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);

  // 1s of skew on rank 1: orders of magnitude above any real scheduling
  // delay in a zero-cost 2-rank run, so the raw-vs-realigned comparisons
  // below cannot be confused by noise.
  constexpr std::int64_t kSkew = 1'000'000'000;
  sim::Cluster::Options o;
  o.topo = {1, 2};
  o.cost = base::CostModel::zero();
  o.clock_skew_ns = {0, kSkew};
  {
    sim::Cluster cluster{o};
    cluster.run([](sim::Process&) {
      init();
      Communicator world = comm_world();
      world.barrier();
      OBS_INSTANT("skew.mark", "test");
      world.barrier();
      finalize();
    });
  }
  t.set_enabled(false);

  const auto all = t.collect();
  const auto marks = events_named(all, "skew.mark");
  ASSERT_EQ(marks.size(), 2u);
  std::map<int, std::int64_t> raw_ts;
  for (const Event& ev : marks) raw_ts[ev.track] = ev.ts_ns;
  ASSERT_TRUE(raw_ts.count(0) == 1 && raw_ts.count(1) == 1);
  // Raw timestamps diverge by about the injected skew (the marks fire
  // between two barriers, so their true separation is tiny).
  EXPECT_GE(raw_ts[1] - raw_ts[0], kSkew / 2);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_skew").string();
  const auto paths = write_rank_traces(dir, "skew", all);
  // The skewed rank's file records the compensating offset in its header.
  bool saw_offset = false;
  for (const auto& path : paths) {
    if (path.find("rank1") == std::string::npos) {
      continue;
    }
    std::ifstream is(path);
    std::string line;
    std::getline(is, line);
    EXPECT_NE(line.find("\"clock_ns_offset\": -1000000000"),
              std::string::npos)
        << line;
    saw_offset = true;
  }
  EXPECT_TRUE(saw_offset);

  // The merge applies the offsets, realigning the timeline: the two marks
  // land back within a small fraction of the skew of each other.
  const std::string merged_path = dir + "/merged.trace.json";
  {
    std::ofstream out(merged_path, std::ios::trunc);
    merge_traces(paths, out);
  }
  const auto parsed = parse_trace_file(merged_path);
  std::map<int, double> aligned_us;
  for (const auto& ev : parsed) {
    if (ev.name == "skew.mark") {
      aligned_us[ev.pid] = ev.ts_us;
    }
  }
  ASSERT_EQ(aligned_us.size(), 2u);
  EXPECT_LT(std::abs(aligned_us[1] - aligned_us[0]),
            static_cast<double>(kSkew) / 2 / 1000.0);
}
#endif  // !SESSMPI_OBS_DISABLED

// --- postmortem bundle -----------------------------------------------------

#if !defined(SESSMPI_OBS_DISABLED)
TEST(ObsPostmortem, DumpWritesManifestTracesAndSections) {
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_enabled(true);
  Tracer::set_thread_track(0);
  t.instant("obs_test.pm_event", "test", 9);
  Tracer::set_thread_track(-1);

  PostmortemSection sec("obs_test.section",
                        [](std::ostream& os) { os << "{\"k\":1}"; });
  base::counters().add("obs_test.pm_counter", 2);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_pm").string();
  const std::string manifest = dump_postmortem(dir, "unit_test");
  ASSERT_FALSE(manifest.empty());
  // The dump froze the rings, then thawed back to the pre-dump state.
  EXPECT_TRUE(t.enabled());
  t.set_enabled(false);

  std::ifstream is(manifest);
  ASSERT_TRUE(is);
  std::stringstream slurp;
  slurp << is.rdbuf();
  const std::string text = slurp.str();
  EXPECT_NE(text.find("\"reason\": \"unit_test\""), std::string::npos);
  EXPECT_NE(text.find("\"obs_test.section\""), std::string::npos);
  EXPECT_NE(text.find("{\"k\":1}"), std::string::npos);
  EXPECT_NE(text.find("obs_test.pm_counter"), std::string::npos);

  // The rank trace file in the bundle is a regular parseable trace holding
  // the pre-failure event.
  const std::string trace =
      (std::filesystem::path(dir) / "postmortem.rank0.trace.json").string();
  const auto parsed = parse_trace_file(trace);
  bool saw = false;
  for (const auto& ev : parsed) saw = saw || ev.name == "obs_test.pm_event";
  EXPECT_TRUE(saw);
}
#endif  // !SESSMPI_OBS_DISABLED

TEST(ObsPostmortem, OutOfOrderUnregisterKeepsRegistrationOrder) {
  const auto body = [](int k) {
    return [k](std::ostream& os) { os << "{\"k\":" << k << "}"; };
  };
  std::vector<PostmortemSection> secs;
  secs.reserve(5);
  for (int k = 0; k < 5; ++k) {
    secs.emplace_back("obs_test.order" + std::to_string(k), body(k));
  }
  // Unregister out of order: move-assigning an empty section drops the old.
  for (int k : {3, 0, 2}) {
    secs[static_cast<std::size_t>(k)] = PostmortemSection();
  }
  PostmortemSection late("obs_test.order5", body(5));

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_pm_order").string();
  const std::string manifest = dump_postmortem(dir, "order_test");
  ASSERT_FALSE(manifest.empty());
  std::ifstream is(manifest);
  std::stringstream slurp;
  slurp << is.rdbuf();
  const std::string text = slurp.str();
  for (int gone : {0, 2, 3}) {
    EXPECT_EQ(text.find("\"obs_test.order" + std::to_string(gone) + "\""),
              std::string::npos);
  }
  std::size_t prev = 0;
  for (int live : {1, 4, 5}) {
    const std::size_t at =
        text.find("\"obs_test.order" + std::to_string(live) + "\"");
    ASSERT_NE(at, std::string::npos) << live;
    EXPECT_GT(at, prev) << live;
    prev = at;
  }
}

TEST(ObsPostmortem, TriggerIsOneShotAndGatedByCvar) {
  TracerGuard guard;
  reset_postmortem_for_testing();
  set_postmortem_dir("");
  const auto dumps0 = base::counters().value("obs.postmortem.dumps");
  trigger_postmortem("not_configured");  // no dir -> no-op, not armed
  EXPECT_EQ(base::counters().value("obs.postmortem.dumps"), dumps0);

  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_pm_trig").string();
  ASSERT_TRUE(cvar_write("obs.postmortem.dir", dir));
  EXPECT_EQ(cvar_read("obs.postmortem.dir").value_or(""), dir);
  trigger_postmortem("first_failure");
  EXPECT_EQ(base::counters().value("obs.postmortem.dumps"), dumps0 + 1);
  EXPECT_TRUE(
      std::filesystem::exists(std::filesystem::path(dir) / "postmortem.json"));

  // The cascade after the first failure must not re-freeze the world.
  const auto supp0 = base::counters().value("obs.postmortem.suppressed");
  trigger_postmortem("cascade");
  EXPECT_EQ(base::counters().value("obs.postmortem.dumps"), dumps0 + 1);
  EXPECT_EQ(base::counters().value("obs.postmortem.suppressed"), supp0 + 1);

  set_postmortem_dir("");
  reset_postmortem_for_testing();
}

// --- metrics sampler -------------------------------------------------------

TEST(ObsSampler, ManualSampleRoundTripsThroughJsonl) {
  MetricsSampler& s = MetricsSampler::instance();
  s.set_period_ms(0);
  s.clear();
  base::counters().add("obs_test.sampler_counter", 7);
  s.sample_now();
  const auto samples = s.samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_GT(samples[0].ts_ns, 0);
  bool saw = false;
  for (const auto& p : samples[0].points) {
    if (p.name == "obs_test.sampler_counter") {
      saw = true;
      EXPECT_GE(p.value, 7.0);
    }
  }
  EXPECT_TRUE(saw);

  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "obs_metrics.jsonl")
          .string();
  EXPECT_EQ(s.write_jsonl(path), 1u);
  std::ifstream is(path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_NE(line.find("\"ts_ns\""), std::string::npos);
  EXPECT_NE(line.find("\"pvars\""), std::string::npos);
  EXPECT_NE(line.find("obs_test.sampler_counter"), std::string::npos);
  s.clear();
}

TEST(ObsSampler, CvarStartsStopsAndValidatesThePeriod) {
  MetricsSampler& s = MetricsSampler::instance();
  s.set_period_ms(0);
  s.clear();
  ASSERT_TRUE(cvar_write("obs.metrics.period_ms", "1"));
  EXPECT_EQ(s.period_ms(), 1);
  EXPECT_EQ(cvar_read("obs.metrics.period_ms").value_or("?"), "1");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (s.samples().empty() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(cvar_write("obs.metrics.period_ms", "0"));  // stops + joins
  EXPECT_FALSE(s.samples().empty()) << "sampler thread never ticked";

  EXPECT_FALSE(cvar_write("obs.metrics.period_ms", "not_a_number"));
  EXPECT_FALSE(cvar_write("obs.metrics.period_ms", "-5"));
  EXPECT_FALSE(cvar_write("obs.metrics.period_ms", "99999999"));  // > 60s cap
  EXPECT_EQ(s.period_ms(), 0);
  s.clear();
}

// --- merge tolerance -------------------------------------------------------

TEST(ObsJson, MergeSkipsMissingEmptyAndTruncatedInputs) {
  // A killed rank leaves its trace file absent, empty, or cut mid-write;
  // the survivors' merge must still succeed (the postmortem path depends
  // on this).
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_merge_tol")
          .string();
  std::filesystem::create_directories(dir);
  std::vector<Event> evs(2);
  evs[0] = {"tol.span", "test", 1000, 0, 0, 0, 0, 1, Phase::begin};
  evs[1] = {"tol.span", "test", 2000, 0, 0, 0, 0, 1, Phase::end};
  auto inputs = write_rank_traces(dir, "tol", evs);
  ASSERT_EQ(inputs.size(), 1u);

  const std::string empty = dir + "/empty.trace.json";
  {
    std::ofstream f(empty, std::ios::trunc);
  }
  std::string good_text;
  {
    std::ifstream is(inputs[0]);
    std::stringstream slurp;
    slurp << is.rdbuf();
    good_text = slurp.str();
  }
  const std::string truncated = dir + "/truncated.trace.json";
  {
    std::ofstream f(truncated, std::ios::trunc);
    f << good_text.substr(0, good_text.size() / 2);  // cut mid-line
  }
  inputs.push_back(dir + "/missing.trace.json");
  inputs.push_back(empty);
  inputs.push_back(truncated);

  const std::string merged_path = dir + "/merged.trace.json";
  std::size_t merged = 0;
  {
    std::ofstream out(merged_path, std::ios::trunc);
    merged = merge_traces(inputs, out);
  }
  EXPECT_EQ(merged, evs.size());  // only the intact file contributes
  const auto parsed = parse_trace_file(merged_path);
  ASSERT_EQ(parsed.size(), evs.size());
  EXPECT_EQ(parsed[0].name, "tol.span");
}

// --- cross-rank flow linkage -----------------------------------------------

#if !defined(SESSMPI_OBS_DISABLED)
TEST(ObsFlowLinkage, EveryMatchedMessageLinksSendToRecvAcrossEightRanks) {
  // The tentpole acceptance check: run real pt2pt + collectives on 8 ranks
  // and verify every receive-side flow edge ('f') resolves to a send-side
  // edge ('s'), and that a collective's fan-out shares one id (one 's'
  // consumed by several 'f's = one distributed trace per op).
  TracerGuard guard;
  Tracer& t = Tracer::instance();
  t.set_ring_capacity(1 << 16);
  t.set_enabled(true);

  // 4 nodes x 2 ranks: intra-node collective traffic is zero-copy (no
  // packets), so the cross-node binomial tree is what exercises flows --
  // with 4 node heads the bcast root fans out 2 messages under one id.
  sim::Cluster::Options o;
  o.topo = {4, 2};
  o.cost = base::CostModel::zero();
  {
    sim::Cluster cluster{o};
    cluster.run([](sim::Process&) {
      init();
      Communicator world = comm_world();
      const int rank = world.rank();
      const int n = world.size();
      // Ring pt2pt: every rank sends one matched message.
      std::int64_t token = 100 + rank;
      std::int64_t in = 0;
      const int next = (rank + 1) % n;
      const int prev = (rank + n - 1) % n;
      if (rank % 2 == 0) {
        world.send(&token, 1, Datatype::int64(), next, 7);
        world.recv(&in, 1, Datatype::int64(), prev, 7);
      } else {
        world.recv(&in, 1, Datatype::int64(), prev, 7);
        world.send(&token, 1, Datatype::int64(), next, 7);
      }
      // Collectives: each op pins one flow id for all its messages.
      std::int64_t v = rank;
      world.bcast(&v, 1, Datatype::int64(), 0);
      std::int64_t one = 1;
      std::int64_t sum = 0;
      world.allreduce(&one, &sum, 1, Datatype::int64(), Op::sum());
      world.barrier();
      finalize();
    });
  }
  t.set_enabled(false);

  const auto all = t.collect();
  std::set<std::uint64_t> starts;
  std::map<std::uint64_t, int> end_fanout;
  std::size_t ends = 0;
  for (const Event& ev : all) {
    if (ev.phase == Phase::flow_start) starts.insert(ev.id);
    if (ev.phase == Phase::flow_end) {
      ++ends;
      ++end_fanout[ev.id];
    }
  }
  // 8 ring messages matched => at least 8 'f' edges.
  EXPECT_GE(ends, 8u);
  std::size_t orphans = 0;
  for (const auto& [id, cnt] : end_fanout) {
    if (starts.count(id) == 0) ++orphans;
  }
  EXPECT_EQ(orphans, 0u) << "flow_end with no matching flow_start";
  // The bcast root's binomial fan-out shares one flow id across >= 2
  // receivers: one distributed trace spanning the whole collective.
  int max_fanout = 0;
  for (const auto& [id, cnt] : end_fanout) max_fanout = std::max(max_fanout, cnt);
  EXPECT_GE(max_fanout, 2);

  // The merged trace renders those edges: 's' and 'f' events survive the
  // per-rank split + merge with their ids intact.
  const std::string dir =
      (std::filesystem::path(::testing::TempDir()) / "obs_flow_link")
          .string();
  const auto paths = write_rank_traces(dir, "flow", all);
  ASSERT_GE(paths.size(), 8u);
  const std::string merged_path = dir + "/merged.trace.json";
  {
    std::ofstream out(merged_path, std::ios::trunc);
    merge_traces(paths, out);
  }
  std::set<std::uint64_t> merged_starts;
  std::set<std::uint64_t> merged_end_ids;
  std::size_t merged_ends = 0;
  for (const auto& ev : parse_trace_file(merged_path)) {
    if (ev.ph == 's') {
      EXPECT_TRUE(ev.has_id);
      merged_starts.insert(ev.id);
    }
    if (ev.ph == 'f') {
      EXPECT_TRUE(ev.has_id);
      ++merged_ends;
      merged_end_ids.insert(ev.id);
    }
  }
  EXPECT_GE(merged_starts.size(), 8u);
  EXPECT_GE(merged_ends, 8u);
  for (const std::uint64_t id : merged_end_ids) {
    EXPECT_TRUE(merged_starts.count(id)) << "merged orphan flow id " << id;
  }
}

TEST(ObsWire, TraceContextRidesTheWireOnlyWhileTracing) {
  // Wire-level witness for the zero-overhead-when-off guarantee: a
  // never-drop packet filter records (kind, trace_ctx) for every packet
  // the fabric carries. Tracing off => every context is zero. Tracing on
  // => every application message carries one, ACK-class packets never do.
  for (const bool tracing : {false, true}) {
    TracerGuard guard;
    Tracer& t = Tracer::instance();
    t.set_enabled(tracing);

    std::mutex mu;
    std::vector<std::pair<fabric::PacketKind, std::uint64_t>> seen;
    sim::Cluster::Options o;
    o.topo = {1, 2};
    o.cost = base::CostModel::zero();
    {
      sim::Cluster cluster{o};
      cluster.fabric().set_drop_filter([&](const fabric::Packet& p) {
        std::lock_guard lk(mu);
        seen.emplace_back(p.kind, p.match.trace_ctx);
        return false;  // observe only
      });
      cluster.run([](sim::Process&) {
        init();
        Communicator world = comm_world();
        std::vector<std::int64_t> big(1024, 42);  // 8 KiB > kEagerLimit
        std::int64_t small = 7;
        if (world.rank() == 0) {
          world.send(&small, 1, Datatype::int64(), 1, 1);  // eager
          world.send(big.data(), 1024, Datatype::int64(), 1, 2);  // rndv
        } else {
          world.recv(&small, 1, Datatype::int64(), 0, 1);
          world.recv(big.data(), 1024, Datatype::int64(), 0, 2);
        }
        world.barrier();
        finalize();
      });
      cluster.fabric().set_drop_filter(nullptr);
    }
    t.set_enabled(false);

    std::size_t app_msgs = 0;
    for (const auto& [kind, ctx] : seen) {
      const bool is_app_msg = kind == fabric::PacketKind::eager ||
                              kind == fabric::PacketKind::eager_ext ||
                              kind == fabric::PacketKind::rndv_rts ||
                              kind == fabric::PacketKind::rndv_rts_ext;
      if (!tracing) {
        EXPECT_EQ(ctx, 0u) << "wire carried trace context while tracing off";
        continue;
      }
      if (is_app_msg) {
        ++app_msgs;
        EXPECT_NE(ctx, 0u) << "untagged app message while tracing on";
      }
      if (kind == fabric::PacketKind::cid_ack ||
          kind == fabric::PacketKind::rndv_cts ||
          kind == fabric::PacketKind::sync_ack ||
          kind == fabric::PacketKind::flow_ack) {
        EXPECT_EQ(ctx, 0u) << "ACK-class packet carrying trace context";
      }
    }
    if (tracing) {
      EXPECT_GE(app_msgs, 2u);  // at least the eager + the rndv RTS
    }
  }
}
#endif  // !SESSMPI_OBS_DISABLED

// --- C API mirror ----------------------------------------------------------

TEST(ObsCapi, PvarEnumerateReadReset) {
  using namespace sessmpi::capi;
  base::counters().add("obs_test.capi_counter", 11);
  histogram("obs_test.capi_hist").record(500);

  int num = 0;
  ASSERT_EQ(SESSMPI_T_pvar_get_num(&num), MPI_SUCCESS);
  ASSERT_GE(num, 2);
  bool saw_counter = false;
  bool saw_hist = false;
  for (int i = 0; i < num; ++i) {
    char name[128];
    int cls = -1;
    ASSERT_EQ(SESSMPI_T_pvar_get_info(i, name, sizeof name, &cls),
              MPI_SUCCESS);
    if (std::string(name) == "obs_test.capi_counter") {
      saw_counter = true;
      EXPECT_EQ(cls, SESSMPI_T_PVAR_CLASS_COUNTER);
    }
    if (std::string(name) == "obs_test.capi_hist") {
      saw_hist = true;
      EXPECT_EQ(cls, SESSMPI_T_PVAR_CLASS_HISTOGRAM);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);

  unsigned long long value = 0;
  ASSERT_EQ(SESSMPI_T_pvar_read("obs_test.capi_counter", &value), MPI_SUCCESS);
  EXPECT_EQ(value, 11u);
  ASSERT_EQ(SESSMPI_T_pvar_read("obs_test.capi_hist", &value), MPI_SUCCESS);
  EXPECT_GE(value, 1u);  // histogram read-by-value = sample count

  double p = 0;
  ASSERT_EQ(SESSMPI_T_pvar_read_percentile("obs_test.capi_hist", 0.99, &p),
            MPI_SUCCESS);
  EXPECT_GE(p, 500.0);
  EXPECT_LE(p, 500.0 * 1.07);

  EXPECT_EQ(SESSMPI_T_pvar_reset("obs_test.capi_counter"), MPI_SUCCESS);
  ASSERT_EQ(SESSMPI_T_pvar_read("obs_test.capi_counter", &value), MPI_SUCCESS);
  EXPECT_EQ(value, 0u);

  EXPECT_NE(SESSMPI_T_pvar_read("obs_test.no_such", &value), MPI_SUCCESS);
  EXPECT_NE(SESSMPI_T_pvar_get_info(-1, nullptr, 0, nullptr), MPI_SUCCESS);

  // reset_all goes through counters().reset() -> histogram hook.
  histogram("obs_test.capi_hist").record(500);
  EXPECT_EQ(SESSMPI_T_pvar_reset_all(), MPI_SUCCESS);
  ASSERT_EQ(SESSMPI_T_pvar_read("obs_test.capi_hist", &value), MPI_SUCCESS);
  EXPECT_EQ(value, 0u);
}

TEST(ObsCapi, CvarRoundTrip) {
  using namespace sessmpi::capi;
  TracerGuard guard;
  int num = 0;
  ASSERT_EQ(SESSMPI_T_cvar_get_num(&num), MPI_SUCCESS);
  ASSERT_GE(num, 2);
  bool saw_enabled = false;
  for (int i = 0; i < num; ++i) {
    char name[128];
    ASSERT_EQ(SESSMPI_T_cvar_get_info(i, name, sizeof name), MPI_SUCCESS);
    if (std::string(name) == "obs.trace.enabled") saw_enabled = true;
  }
  EXPECT_TRUE(saw_enabled);

  ASSERT_EQ(SESSMPI_T_cvar_write("obs.trace.enabled", "1"), MPI_SUCCESS);
  char value[16];
  ASSERT_EQ(SESSMPI_T_cvar_read("obs.trace.enabled", value, sizeof value),
            MPI_SUCCESS);
  EXPECT_STREQ(value, "1");
  EXPECT_TRUE(Tracer::instance().enabled());
  ASSERT_EQ(SESSMPI_T_cvar_write("obs.trace.enabled", "0"), MPI_SUCCESS);

  EXPECT_NE(SESSMPI_T_cvar_read("obs.no_such", value, sizeof value),
            MPI_SUCCESS);
  EXPECT_NE(SESSMPI_T_cvar_write("obs.no_such", "1"), MPI_SUCCESS);
}

}  // namespace
}  // namespace sessmpi::obs
