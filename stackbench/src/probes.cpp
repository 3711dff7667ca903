#include "probes.hpp"

#include <unistd.h>

#include <cstring>
#include <thread>

#include "ops.hpp"
#include "sessmpi/fabric/fabric.hpp"

namespace stackbench {

namespace {

constexpr std::int64_t kProbeBudgetNs = 40'000'000;  // per reference probe

/// Repeat `body` (which returns its own timed ns) until the budget is spent
/// or `max_reps` ran; returns every sample.
template <typename F>
std::vector<double> repeat(int max_reps, F&& body) {
  std::vector<double> samples;
  const std::int64_t stop = now_ns() + kProbeBudgetNs;
  for (int i = 0; i < max_reps && (i < 5 || now_ns() < stop); ++i) {
    samples.push_back(static_cast<double>(body()));
  }
  return samples;
}

double memcpy_gbps(std::uint64_t seed, Tally& t) {
  std::vector<std::byte> src(kWindowBytes);
  std::vector<std::byte> dst(kWindowBytes);
  for (std::size_t i = 0; i < src.size(); i += 8) {
    const std::uint64_t w = mix(seed, i);
    std::memcpy(src.data() + i, &w, sizeof w);
  }
  const auto ns = repeat(400, [&] {
    const std::int64_t t0 = now_ns();
    std::memcpy(dst.data(), src.data(), src.size());
    return now_ns() - t0;
  });
  t.check(std::memcmp(dst.data(), src.data(), src.size()) == 0, "memcpy copy");
  return static_cast<double>(kWindowBytes) / quantile(ns, 0.5);
}

void pack_probe(const Datatype& dt, std::uint64_t seed, double& pack_ns_kib,
                double& unpack_ns_kib, Tally& t) {
  constexpr std::size_t kBytes = 64 * 1024;
  const int count = static_cast<int>(kBytes / dt.size());
  std::vector<std::byte> src(kBytes);
  std::vector<std::byte> wire(kBytes);
  std::vector<std::byte> back(kBytes);
  for (std::size_t i = 0; i < kBytes; i += 8) {
    // Integer-valued doubles keep the float64 view free of NaN patterns.
    const double v = small_int(mix(seed, 0xDA7A, i));
    std::memcpy(src.data() + i, &v, sizeof v);
  }
  const auto pack_ns = repeat(2000, [&] {
    const std::int64_t t0 = now_ns();
    dt.pack(src.data(), count, wire.data());
    return now_ns() - t0;
  });
  const auto unpack_ns = repeat(2000, [&] {
    const std::int64_t t0 = now_ns();
    dt.unpack(wire.data(), count, back.data());
    return now_ns() - t0;
  });
  t.check(std::memcmp(src.data(), back.data(), kBytes) == 0,
          "datatype pack/unpack round trip");
  pack_ns_kib = quantile(pack_ns, 0.5) / 64.0;
  unpack_ns_kib = quantile(unpack_ns, 0.5) / 64.0;
}

/// Timed Fabric::send of `bytes`-byte eager packets from endpoint 0 to 1,
/// 64 per batch; payloads are stamped per packet and checked on arrival.
double fabric_send_ns(fabric::Fabric& fab, std::size_t bytes,
                      std::uint64_t seed, std::size_t& sends, Tally& t) {
  constexpr int kBatch = 64;
  std::vector<fabric::Packet> batch(kBatch);
  std::uint64_t next = 0;
  bool ok = true;
  const auto ns = repeat(4000, [&] {
    const std::uint64_t first = next;
    for (auto& p : batch) {
      p = fabric::Packet{};
      p.src_rank = 0;
      p.dst_rank = 1;
      p.match.tag = 1;
      p.payload.resize(bytes);
      const std::uint64_t w = mix(seed, 0xFAB, next++);
      std::memcpy(p.payload.data(), &w, sizeof w);
    }
    const std::int64_t t0 = now_ns();
    for (auto& p : batch) {
      fab.send(std::move(p));
    }
    const std::int64_t dt = now_ns() - t0;
    for (std::uint64_t k = first; k < next; ++k) {
      auto got = fab.endpoint(1).inbox().try_pop();
      std::uint64_t w = 0;
      if (got && got->payload.size() == bytes) {
        std::memcpy(&w, got->payload.data(), sizeof w);
      }
      ok &= got.has_value() && w == mix(seed, 0xFAB, k);
    }
    return dt / kBatch;
  });
  t.check(ok, "bare fabric delivery");
  t.op(next);
  sends = next;
  return quantile(ns, 0.5);
}

}  // namespace

Reference measure_reference(std::uint64_t seed, Tally& t) {
  Reference r;
  r.memcpy_gbps = memcpy_gbps(seed, t);
  pack_probe(Datatype::byte(), seed, r.pack_byte_ns_per_kib,
             r.unpack_byte_ns_per_kib, t);
  pack_probe(Datatype::float64(), seed, r.pack_f64_ns_per_kib,
             r.unpack_f64_ns_per_kib, t);
  {
    fabric::Fabric fab{base::Topology{1, 2}, base::CostModel::zero()};
    ThreadWatch::instance().sample();
    std::size_t sends = 0;
    r.fabric_send_8b_ns = fabric_send_ns(fab, 8, seed, sends, t);
    r.fabric_sends = sends;
    r.fabric_send_64k_ns = fabric_send_ns(fab, 64 * 1024, seed, sends, t);
    r.fabric_sends = std::min(r.fabric_sends, sends);
    const auto esc = fab.rto_escalations();
    t.check(esc == 0, "bare fabric rto escalations");
  }
  return r;
}

int host_cores() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

int fiber_workers(int ranks) {
  // FiberPool's default: hardware_concurrency - 1 workers (one core left
  // for the fabric pump), at least 1, at most one per fiber.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(hw - 1, ranks));
}

void report_reference(const Reference& ref, Report& rep) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  rep.line("--- same-run reference and budget ---");
  rep.line("host.nproc = " + std::to_string(host_cores()));
  rep.line("base.window_buffer_kib = " + std::to_string(kWindowBytes / 1024) +
           "  (last-level cache " +
           (llc > 0 ? std::to_string(llc / 1024) + " KiB" : "unknown") + ")");
  rep.layer("base.memcpy_gbps", ref.memcpy_gbps, "GB/s",
            "single-thread memcpy of the window buffer, median");
  rep.layer("core.datatype.pack_ns_per_kib.byte", ref.pack_byte_ns_per_kib,
            "ns/KiB", "Datatype::byte().pack of 64 KiB, median; unpack " +
                          fmt(ref.unpack_byte_ns_per_kib, 1) + " ns/KiB");
  rep.layer("core.datatype.pack_ns_per_kib.float64", ref.pack_f64_ns_per_kib,
            "ns/KiB", "Datatype::float64().pack of 64 KiB, median; unpack " +
                          fmt(ref.unpack_f64_ns_per_kib, 1) + " ns/KiB");
  rep.layer("fabric.send_8b_ns", ref.fabric_send_8b_ns, "ns",
            "bare 2-endpoint zero-cost Fabric, median of 64-send batches, " +
                std::to_string(ref.fabric_sends) + "+ sends");
  rep.layer("fabric.send_64k_ns", ref.fabric_send_64k_ns, "ns",
            "bare 2-endpoint zero-cost Fabric, 64 KiB payloads");
}

void check_thread_budget(Report& rep) {
  ThreadWatch::instance().sample();
  const long peak = ThreadWatch::instance().peak();
  const long working = peak - 1;
  rep.line("threads.peak = " + std::to_string(peak) + "  (" +
           std::to_string(working) +
           " doing work + the launching thread parked in join; budget " +
           std::to_string(host_cores()) + ")");
  if (working > host_cores()) {
    rep.fail("thread budget: " + std::to_string(working) +
             " working threads exceed " + std::to_string(host_cores()) +
             " cores");
  }
}

void layer_probes(const Communicator& c, const ProbeMask& m, int reps,
                  std::uint64_t seed, Tally& t) {
  STACKBENCH_SPAN("app.probes");
  const Ring ring = ring_of(c);
  const std::uint64_t base = 1ull << 40;  // probe steps never meet workload steps
  if (m.halo) {
    Halo h;
    for (int i = 0; i < reps; ++i) {
      const std::uint64_t step = base + static_cast<std::uint64_t>(i);
      halo_fill(h, ring, seed, step);
      halo_exchange(c, ring, h);
      halo_check(h, ring, seed, step, t);
    }
  }
  if (m.isend) {
    constexpr int kWindow = 16;
    std::vector<std::vector<std::byte>> sbuf(kWindow,
                                             std::vector<std::byte>(4096));
    auto rbuf = sbuf;
    for (int i = 0; i < std::max(1, reps / 2); ++i) {
      ring_isend_window(c, ring, sbuf, rbuf, seed,
                        base + static_cast<std::uint64_t>(i), t);
    }
  }
  if (m.reduce) {
    SmallReduce s;
    for (int i = 0; i < reps; ++i) {
      const std::uint64_t step = base + static_cast<std::uint64_t>(i);
      small_fill(s, ring, seed, step);
      allreduce_8b(c, s);
      small_check(s, ring, seed, step, t);
    }
    BigReduce b(seed);
    for (int i = 0; i < std::max(1, reps / 2); ++i) {
      const std::uint64_t step = base + static_cast<std::uint64_t>(i);
      big_fill(b, ring, seed, step);
      allreduce_64k(c, b);
      big_check(b, ring, seed, step, t);
    }
  }
  if (m.barrier) {
    for (int i = 0; i < reps; ++i) {
      barrier(c);
      t.op();
    }
  }
  if (m.agree) {
    for (int i = 0; i < std::max(1, reps / 2); ++i) {
      std::uint64_t agreed = 0;
      agree(c, ~0ull, agreed, t);
      t.check(agreed == ~0ull, "agree of all-ones");
    }
  }
  if (m.ckpt) {
    std::vector<double> state(2048);  // 16 KiB
    for (std::size_t i = 0; i < state.size(); ++i) {
      state[i] = small_int(mix(seed, static_cast<std::uint64_t>(ring.me), i));
    }
    ckpt::Checkpointer ck("stackbench.probe", rs42());
    ck.register_dataset("state", state.data(), state.size() * sizeof(double));
    for (int i = 0; i < 2; ++i) {
      ckpt_save(ck, c, t);
    }
  }
}

}  // namespace stackbench
