// pt2pt workload: two ranks on one node. On fibers an 8 B ping-pong, an
// 8 B windowed stream and a 64 KiB byte-typed windowed stream (window 64,
// osu_mbw_mr shape); then the 8 B ping-pong again on threads.

#include <array>
#include <cstring>

#include "ops.hpp"
#include "probes.hpp"
#include "workload.hpp"

namespace stackbench {

namespace {

constexpr int kWindow8 = 64;     ///< 8 B stream window (osu_mbw_mr)
constexpr int kWindow64k = 16;  ///< 64 KiB stream window (1 MiB in flight)
constexpr int kBlocks = 40;
constexpr int kBatch = 500;  ///< ping-pong iterations between stop checks
constexpr int kSetups = 101;
constexpr int kTagPing = 1;
constexpr int kTagPong = 2;
constexpr int kTagCtl = 3;
constexpr int kTagData = 4;
constexpr int kTagAck = 5;
constexpr std::size_t kBig = 64 * 1024;

/// Rank 0 decides whether the phase goes on; rank 1 follows.
bool keep_going(const Communicator& c, bool decision) {
  std::int32_t flag = decision ? 1 : 0;
  if (c.rank() == 0) {
    c.send(&flag, 1, Datatype::int32(), 1, kTagCtl);
  } else {
    c.recv(&flag, 1, Datatype::int32(), 0, kTagCtl);
  }
  return flag != 0;
}

/// 8 B ping-pong until `deadline` or `max_iters`; rank 0 records each
/// half round trip (ns).
void pingpong(const Communicator& c, std::uint64_t seed, std::int64_t deadline,
              std::uint64_t max_iters, std::vector<double>& half_rtt,
              Tally& t) {
  const bool client = c.rank() == 0;
  std::uint64_t i = 0;
  for (bool more = true; more;) {
    for (int k = 0; k < kBatch; ++k, ++i) {
      const std::uint64_t ping = mix(seed, 0x9196, i);
      std::uint64_t got = 0;
      if (client) {
        const std::int64_t t0 = now_ns();
        {
          STACKBENCH_SPAN("call.core.send");
          c.send(&ping, 8, Datatype::byte(), 1, kTagPing);
        }
        {
          STACKBENCH_SPAN("call.core.recv");
          c.recv(&got, 8, Datatype::byte(), 1, kTagPong);
        }
        half_rtt.push_back(static_cast<double>(now_ns() - t0) / 2.0);
        t.check(got == ~ping, "pong payload");
      } else {
        {
          STACKBENCH_SPAN("call.core.recv");
          c.recv(&got, 8, Datatype::byte(), 0, kTagPing);
        }
        const std::uint64_t pong = ~got;
        {
          STACKBENCH_SPAN("call.core.send");
          c.send(&pong, 8, Datatype::byte(), 0, kTagPong);
        }
        t.check(got == ping, "ping payload");
      }
    }
    more = keep_going(c, now_ns() < deadline && i < max_iters);
  }
}

using Messages = std::vector<std::vector<std::byte>>;

/// `window` messages of `bytes` seeded bytes each; the 8-byte words at both
/// ends are overwritten by per-window stamps.
Messages seeded_messages(std::size_t bytes, int window, std::uint64_t seed) {
  Messages out(static_cast<std::size_t>(window), std::vector<std::byte>(bytes));
  for (std::size_t m = 0; m < out.size(); ++m) {
    for (std::size_t off = 0; off < bytes; off += 8) {
      const std::uint64_t w = mix(seed, 0xB0D1, m, off);
      std::memcpy(out[m].data() + off, &w, std::min<std::size_t>(8, bytes - off));
    }
  }
  return out;
}

/// One rank's stream buffers. Allocated once on the launching thread and
/// reused by every block, so the heap footprint does not depend on which
/// carrier threads (and malloc arenas) a block happened to get.
struct StreamBuffers {
  Messages small;   ///< 8 B stream window
  Messages big;     ///< 64 KiB stream window
  Messages expect;  ///< receiver: the 64 KiB seeded bodies to compare
};

/// Windowed stream rank 0 -> rank 1: `buf.size()` isends then wait_all on
/// the sender, as many irecvs then wait_all and a 8 B ack on the receiver.
/// Rank 0 records each window's time, isend posts through the ack (ns),
/// and, when `post_ns` is given, the time of each isend call. The receiver
/// compares one rotating message per window against `expect` in full.
void stream(const Communicator& c, Messages& buf, const Messages& expect,
            std::uint64_t seed, std::int64_t deadline,
            std::uint64_t max_windows, std::vector<double>& window_ns,
            std::vector<double>* post_ns, Tally& t) {
  const bool sender = c.rank() == 0;
  const int window = static_cast<int>(buf.size());
  const std::size_t bytes = buf[0].size();
  const int count = static_cast<int>(bytes);
  std::vector<Request> reqs(static_cast<std::size_t>(window));
  std::vector<double> posts(static_cast<std::size_t>(window));
  std::uint64_t w = 0;
  for (bool more = true; more; ++w) {
    const auto word = [&](int i) {
      return mix(seed, w, static_cast<std::uint64_t>(i), bytes);
    };
    if (sender) {
      for (int i = 0; i < window; ++i) {
        stamp(buf[static_cast<std::size_t>(i)], word(i));
      }
      std::uint64_t ack = 0;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < window; ++i) {
        const std::int64_t p0 = now_ns();
        {
          STACKBENCH_SPAN("call.core.isend");
          reqs[static_cast<std::size_t>(i)] =
              c.isend(buf[static_cast<std::size_t>(i)].data(), count,
                      Datatype::byte(), 1, kTagData);
        }
        posts[static_cast<std::size_t>(i)] = static_cast<double>(now_ns() - p0);
      }
      {
        STACKBENCH_SPAN("call.core.wait_all");
        Request::wait_all(reqs);
      }
      {
        STACKBENCH_SPAN("call.core.recv");
        c.recv(&ack, 8, Datatype::byte(), 1, kTagAck);
      }
      window_ns.push_back(static_cast<double>(now_ns() - t0));
      if (post_ns != nullptr) {
        post_ns->insert(post_ns->end(), posts.begin(), posts.end());
      }
      t.check(ack == mix(seed, w, 0xACC), "stream ack");
      t.op(static_cast<std::uint64_t>(window));
    } else {
      for (int i = 0; i < window; ++i) {
        STACKBENCH_SPAN("call.core.irecv");
        reqs[static_cast<std::size_t>(i)] =
            c.irecv(buf[static_cast<std::size_t>(i)].data(), count,
                    Datatype::byte(), 0, kTagData);
      }
      {
        STACKBENCH_SPAN("call.core.wait_all");
        Request::wait_all(reqs);
      }
      const std::uint64_t ack = mix(seed, w, 0xACC);
      {
        STACKBENCH_SPAN("call.core.send");
        c.send(&ack, 8, Datatype::byte(), 0, kTagAck);
      }
      bool ok = true;
      for (int i = 0; i < window; ++i) {
        ok &= stamped(buf[static_cast<std::size_t>(i)], word(i));
      }
      t.check(ok, "stream stamps");
      if (!sender && !expect.empty()) {
        // One rotating message per window is compared in full.
        const std::size_t j = w % static_cast<std::uint64_t>(window);
        t.check(std::memcmp(buf[j].data() + 8, expect[j].data() + 8,
                            bytes - 16) == 0,
                "stream payload");
      }
    }
    more = keep_going(c, now_ns() < deadline && w + 1 < max_windows);
  }
}

struct Phases {
  std::vector<double> half_ns;       ///< fiber ping-pong, rank 0
  std::vector<double> window8_ns;    ///< 8 B stream windows
  std::vector<double> post8_ns;      ///< 8 B stream isend calls
  std::vector<double> window64k_ns;  ///< 64 KiB stream windows
  std::vector<double> half_thr_ns;   ///< threads ping-pong

  /// Empty every series but keep its capacity, so later blocks reuse the
  /// storage instead of growing fresh vectors on new carrier threads.
  void clear() {
    for (auto* v : {&half_ns, &window8_ns, &post8_ns, &window64k_ns,
                    &half_thr_ns}) {
      v->clear();
    }
  }
};

/// One block's statistics (the samples themselves are not kept).
struct BlockStats {
  double half_p50 = 0;
  double half_p90 = 0;
  double post8_p50 = 0;
  double per_msg_64k = 0;
  double rate8 = 0;
  double thr_p50 = 0;
  std::size_t n_half = 0, n_post = 0, n_w8 = 0, n_w64k = 0, n_thr = 0;
};

/// Limits of one pass over the phases: deadlines as budget shares from the
/// start of the fiber phases, plus hard caps (traced runs must fit the
/// trace rings).
struct Plan {
  double budget_s = 0;
  std::uint64_t pingpong_iters = ~0ull;
  std::uint64_t windows8 = ~0ull;
  std::uint64_t windows64k = ~0ull;
  std::uint64_t threads_iters = ~0ull;
  bool streams = true;
  bool threads = true;
  bool probes = false;
};

std::int64_t share(const Plan& p, double f) {
  return static_cast<std::int64_t>(p.budget_s * f * 1e9);
}

/// The fiber phases on one 1x2 cluster, then the threads ping-pong on
/// another. `tr` (optional) brackets both as traced windows.
void run_phases(const Args& a, const Plan& plan, Phases& out,
                std::array<StreamBuffers, 2>& bufs, Report& rep, Tracing* tr) {
  use_scheduler("fibers");
  {
    sim::Cluster cl{zero_opts(1, 2)};
    std::vector<Tally> tallies(2);
    if (tr != nullptr) tr->start(cl.fabric());
    cl.run([&](sim::Process& p) {
      const auto r = static_cast<std::size_t>(p.rank());
      Tally& t = tallies[r];
      Setup s;
      {
        STACKBENCH_SPAN("app.setup");
        s = session_setup("stackbench.pt2pt", a.seed, 1, t);
      }
      const std::int64_t start = now_ns();
      {
        STACKBENCH_SPAN("app.pingpong");
        pingpong(s.comm, a.seed, start + share(plan, 0.35), plan.pingpong_iters,
                 out.half_ns, t);
      }
      if (p.rank() == 0) {
        ThreadWatch::instance().sample();
      }
      if (plan.streams) {
        {
          STACKBENCH_SPAN("app.stream_8b");
          stream(s.comm, bufs[r].small, Messages{}, a.seed,
                 start + share(plan, 0.55), plan.windows8, out.window8_ns,
                 &out.post8_ns, t);
        }
        STACKBENCH_SPAN("app.stream_64k");
        stream(s.comm, bufs[r].big, bufs[r].expect, a.seed,
               start + share(plan, 0.80), plan.windows64k, out.window64k_ns,
               nullptr, t);
      }
      if (plan.probes) {
        layer_probes(s.comm, {.halo = true, .reduce = true, .barrier = true,
                              .agree = true, .ckpt = true},
                     16, a.seed, t);
      }
      STACKBENCH_SPAN("app.teardown");
      teardown(s);
    });
    if (tr != nullptr) tr->stop(cl.fabric());
    for (const Tally& t : tallies) rep.merge(t);
  }
  if (!plan.threads) {
    return;
  }
  use_scheduler("threads");
  {
    sim::Cluster cl{zero_opts(1, 2)};
    std::vector<Tally> tallies(2);
    if (tr != nullptr) tr->start(cl.fabric());
    cl.run([&](sim::Process& p) {
      Tally& t = tallies[static_cast<std::size_t>(p.rank())];
      Setup s;
      {
        STACKBENCH_SPAN("app.setup");
        s = session_setup("stackbench.pt2pt.threads", a.seed, 2, t);
      }
      if (p.rank() == 0) {
        ThreadWatch::instance().sample();
      }
      {
        STACKBENCH_SPAN("app.pingpong_threads");
        pingpong(s.comm, a.seed, now_ns() + share(plan, 0.20),
                 plan.threads_iters, out.half_thr_ns, t);
      }
      STACKBENCH_SPAN("app.teardown");
      teardown(s);
    });
    if (tr != nullptr) tr->stop(cl.fabric());
    for (const Tally& t : tallies) rep.merge(t);
  }
  use_scheduler("fibers");
}

}  // namespace

void run_pt2pt(const Args& a, Report& rep) {
  SetupTimes setups;
  repeat_setups(1, 2, kSetups, a.seed, setups, rep);
  std::array<StreamBuffers, 2> bufs;
  for (StreamBuffers& b : bufs) {
    b.small = seeded_messages(8, kWindow8, a.seed);
    b.big = seeded_messages(kBig, kWindow64k, a.seed);
  }
  bufs[1].expect = bufs[1].big;

  if (!a.trace) {
    std::vector<BlockStats> blocks;
    Phases ph;
    Plan plan;
    plan.budget_s = a.seconds / kBlocks;
    std::size_t n_half = 0, n_post = 0, n_w8 = 0, n_w64k = 0, n_thr = 0;
    for (int b = 0; b < kBlocks; ++b) {
      ph.clear();
      run_phases(a, plan, ph, bufs, rep, nullptr);
      // Ping-pong series skip each fresh cluster's first batch (warm-up).
      const auto half = after(ph.half_ns, kBatch);
      const auto thr = after(ph.half_thr_ns, kBatch);
      BlockStats st;
      st.half_p50 = quantile(half, 0.5) / 1e3;
      st.half_p90 = quantile(half, 0.9) / 1e3;
      st.post8_p50 = quantile(ph.post8_ns, 0.5) / 1e3;
      st.per_msg_64k = quantile(ph.window64k_ns, 0.5) / 1e3 / kWindow64k;
      st.rate8 = kWindow8 / (quantile(ph.window8_ns, 0.5) / 1e9);
      st.thr_p50 = quantile(thr, 0.5) / 1e3;
      blocks.push_back(st);
      n_half += half.size();
      n_post += ph.post8_ns.size();
      n_w8 += ph.window8_ns.size();
      n_w64k += ph.window64k_ns.size();
      n_thr += thr.size();
    }
    const auto stat = [&](double BlockStats::*field) {
      return per_block(blocks, [&](const BlockStats& b) { return b.*field; });
    };
    rep.e2e_blocks("setup_s", setups.setup_s, "s", setups.setup_s.size(),
                   "1x2 cluster build to first communicator + one message; "
                   "blocks are single set-ups");
    rep.e2e_blocks("lat_us.p50", stat(&BlockStats::half_p50), "us", n_half,
                   "half_rtt_us.p50: fiber 8 B ping-pong, one-way");
    rep.e2e_blocks("lat_us.tail", stat(&BlockStats::half_p90), "us", n_half,
                   "half_rtt_us.p90");
    rep.e2e_blocks("lat2_us.p50", stat(&BlockStats::post8_p50), "us", n_post,
                   "isend post in the 8 B stream (core.isend_post, untraced)");
    const auto per_msg_64k = stat(&BlockStats::per_msg_64k);
    rep.e2e_blocks("lat3_us.p50", per_msg_64k, "us", n_w64k,
                   "64 KiB byte-typed windowed stream (window 16), time per message");
    rep.e2e_blocks("rate_per_s", stat(&BlockStats::rate8), "1/s", n_w8,
                   "msg_rate_8b: 8 B windowed stream (window 64), median window");
    rep.line("bw_64k_mbps = " +
             fmt(static_cast<double>(kBig) / quantile(per_msg_64k, 0.5), 1) +
             " MB/s  [from lat3_us.p50]");
    rep.line("half_rtt_threads_us.p50 = " +
             sig(quantile(stat(&BlockStats::thr_p50), 0.5)) + " us  [8 B ping-pong on "
             "sim.scheduler=threads, median of " + std::to_string(kBlocks) +
             " blocks, n=" + std::to_string(n_thr) +
             "; not a bounded metric: wake-up latency follows host steal]");
    rep.line("sim.fiber_workers = " + std::to_string(fiber_workers(2)) +
             " (+ fabric pump); threads phase: 2 rank threads + pump");
    return;
  }

  // Traced run: an untraced ping-pong for the overhead baseline (the bulk
  // of the measured time), then the same phases traced with caps that fit
  // the trace rings, plus probes.
  Phases base;
  Plan untraced;
  untraced.budget_s = a.seconds;
  untraced.streams = false;
  untraced.threads = false;
  run_phases(a, untraced, base, bufs, rep, nullptr);

  Tracing tr(1u << 18);
  Phases ph;
  Plan traced;
  traced.budget_s = a.seconds;
  traced.pingpong_iters = 10000;
  traced.windows8 = 40;
  traced.windows64k = 10;
  traced.threads_iters = 3000;
  traced.probes = true;
  run_phases(a, traced, ph, bufs, rep, &tr);
  const Ledger l = tr.finish(rep);

  LayerInputs in;
  in.cluster_build_ms = quantile(setups.build_ms, 0.5);
  in.cluster_builds = setups.build_ms.size();
  in.ranks_set_up = 4;
  // The first batch of each ping-pong warms caches and lazy state.
  const double off = quantile(after(base.half_ns, kBatch), 0.5);
  const double on = quantile(after(ph.half_ns, kBatch), 0.5);
  in.overhead_ratio = off > 0 ? on / off : 0;
  in.overhead_base = "traced / untraced fiber half-RTT p50 = " +
                     fmt(on / 1e3) + " / " + fmt(off / 1e3) + " us";
  report_layers(l, tr.window(), in, rep);
  print_ledger(l, rep);
}

}  // namespace stackbench
