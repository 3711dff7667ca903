// Traced point-to-point benchmark + observability overhead smoke check.
//
// Two jobs in one binary:
//  - `--trace out/`: run a fully traced Sessions ping-pong (session init,
//    create_from_group, an ft agree round, then the message loop) and flush
//    per-rank Chrome trace files; tools/trace_merge folds them into one
//    Perfetto-loadable timeline with spans from core, fabric, pmix and ft.
//  - `--smoke`: assert the tracing-enabled latency stays within 10% of the
//    tracing-disabled latency (CI gate for the "tens of ns per span"
//    overhead budget). The ratio is also exported as the obs.overhead_pct
//    counter inside COUNTERS_JSON. The smoke also gates
//    `pack_memcpy_ratio`: a 64 KiB Datatype::byte() pack+unpack against
//    two 64 KiB memcpys in the same run, which stays near 1 while packing
//    copies whole contiguous runs and passes 100 if it copies per element.

#include "common.hpp"

namespace sessmpi::bench {
namespace {

constexpr std::size_t kProbeSize = 8;
constexpr int kWarmup = 10;
constexpr int kIters = 100;
constexpr int kReps = 5;

/// One-way ping-pong latency in microseconds.
double pingpong_us(const Communicator& comm, std::size_t size, int iters) {
  std::vector<std::byte> buf(std::max<std::size_t>(size, 1));
  const int me = comm.rank();
  const int other = 1 - me;
  const int n = static_cast<int>(size);
  base::Stopwatch sw;
  for (int i = 0; i < iters; ++i) {
    if (me == 0) {
      comm.send(buf.data(), n, Datatype::byte(), other, 1);
      comm.recv(buf.data(), n, Datatype::byte(), other, 1);
    } else {
      comm.recv(buf.data(), n, Datatype::byte(), other, 1);
      comm.send(buf.data(), n, Datatype::byte(), other, 1);
    }
  }
  return sw.elapsed_us() / (2.0 * iters);
}

/// Best-of-kReps steady-state latency on a fresh Sessions communicator.
/// The traced variant also runs one agree round so the ft layer shows up
/// in the merged timeline.
double measure_latency_us(bool with_agree) {
  RankSamples best;
  run_cluster(1, 2, [&](sim::Process& p) {
    Session s = Session::init();
    Communicator c = Communicator::create_from_group(
        s.group_from_pset("mpi://world"), "pt2pt");
    if (with_agree) {
      (void)c.agree(~0ull);
    }
    pingpong_us(c, kProbeSize, kWarmup);  // handshake + warmup
    double lat = 1e300;
    for (int r = 0; r < kReps; ++r) {
      lat = std::min(lat, pingpong_us(c, kProbeSize, kIters));
    }
    if (p.rank() == 0) {
      best.add(lat);
    }
    c.free();
    s.finalize();
  });
  return best.max();
}

constexpr std::size_t kPackBytes = std::size_t{64} << 10;
constexpr int kPackReps = 200;
constexpr double kPackRatioBudget = 3.0;

/// Keeps the compiler from dropping copies whose results are never read.
void clobber(void* p) { asm volatile("" : : "r"(p) : "memory"); }

/// Best-of-kPackReps time of a 64 KiB Datatype::byte() pack+unpack over
/// that of two 64 KiB memcpys; the two are timed in alternating reps.
double pack_memcpy_ratio() {
  std::vector<std::byte> src(kPackBytes, std::byte{0x5A});
  std::vector<std::byte> wire(kPackBytes);
  std::vector<std::byte> dst(kPackBytes);
  const int n = static_cast<int>(kPackBytes);
  const Datatype& dt = Datatype::byte();
  std::int64_t pack_ns = INT64_MAX;
  std::int64_t copy_ns = INT64_MAX;
  for (int r = 0; r < kPackReps; ++r) {
    base::Stopwatch pack;
    dt.pack(src.data(), n, wire.data());
    dt.unpack(wire.data(), n, dst.data());
    clobber(dst.data());
    pack_ns = std::min(pack_ns, pack.elapsed_ns());

    base::Stopwatch copy;
    std::memcpy(wire.data(), src.data(), kPackBytes);
    clobber(wire.data());
    std::memcpy(dst.data(), wire.data(), kPackBytes);
    clobber(dst.data());
    copy_ns = std::min(copy_ns, copy.elapsed_ns());
  }
  return static_cast<double>(pack_ns) /
         static_cast<double>(std::max<std::int64_t>(copy_ns, 1));
}

}  // namespace
}  // namespace sessmpi::bench

int main(int argc, char** argv) {
  using namespace sessmpi;
  using namespace sessmpi::bench;
  std::cout << "bench_pt2pt: traced Sessions ping-pong + obs overhead "
               "smoke (--trace <dir>, --smoke)\n";

  const auto trace_dir = trace_dir_from_args(argc, argv);
  const auto metrics_period = metrics_period_from_args(argc, argv);
  const bool smoke = flag_present(argc, argv, "--smoke");
  obs::Tracer& tracer = obs::Tracer::instance();

  // Phase 1: tracing disabled — the baseline the overhead check compares
  // against (and, in a -DSESSMPI_OBS_TRACING=OFF build, the only mode).
  tracer.set_enabled(false);
  const double lat_off_us = measure_latency_us(/*with_agree=*/false);

  // Phase 2: tracing enabled, probes hot. This is also the traced run the
  // per-rank files are flushed from.
  tracer.clear();
  tracer.set_enabled(true);
  const double lat_on_us = measure_latency_us(/*with_agree=*/true);
  tracer.set_enabled(false);

  const double ratio = lat_off_us > 0 ? lat_on_us / lat_off_us : 1.0;
  const double pack_ratio = pack_memcpy_ratio();
  base::counters().add("obs.overhead_pct",
                       static_cast<std::uint64_t>(ratio * 100.0 + 0.5));

  print_header("Tracing overhead: 8-byte on-node ping-pong",
               "best-of-" + std::to_string(kReps) + " one-way latency, " +
                   std::to_string(kIters) + " iterations per rep.");
  base::Table t({"tracing", "latency (us)", "vs off"});
  t.add_row({"off", base::Table::fmt(lat_off_us, 3), "1.000"});
  t.add_row({"on", base::Table::fmt(lat_on_us, 3), base::Table::fmt(ratio, 3)});
  t.print(std::cout);

  print_header("Datatype packing: 64 KiB Datatype::byte()",
               "pack+unpack vs two memcpys of the same bytes, best of " +
                   std::to_string(kPackReps) + " alternating reps.");
  std::cout << "pack_memcpy_ratio " << base::Table::fmt(pack_ratio, 3)
            << "\n";

  // Only ratios are baseline-gated: absolute latency is host noise, the
  // on/off ratio is what the obs layer owns and the pack/memcpy ratio is
  // what the datatype engine owns.
  record_metric("overhead_ratio", ratio, "lower");
  record_metric("pack_memcpy_ratio", pack_ratio, "lower");
  print_counters_json("bench_pt2pt");
  print_metrics_json("bench_pt2pt");
  write_bench_json(argc, argv, "bench_pt2pt");
  flush_trace(trace_dir, "bench_pt2pt");
  flush_metrics(metrics_period, trace_dir.value_or("."), "bench_pt2pt");

  if (smoke) {
    const bool pass = ratio <= 1.10;
    std::cout << (pass ? "OVERHEAD_SMOKE PASS" : "OVERHEAD_SMOKE FAIL")
              << " (on/off = " << base::Table::fmt(ratio, 3)
              << ", budget 1.10)\n";
    const bool pack_pass = pack_ratio <= kPackRatioBudget;
    std::cout << (pack_pass ? "PACK_SMOKE PASS" : "PACK_SMOKE FAIL")
              << " (pack/memcpy = " << base::Table::fmt(pack_ratio, 3)
              << ", budget " << base::Table::fmt(kPackRatioBudget, 1)
              << ")\n";
    return pass && pack_pass ? 0 : 1;
  }
  return 0;
}
