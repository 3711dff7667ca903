// OSU-style collective micro-benchmark for the hierarchical engine
// (src/coll). Sweeps message size x cluster shape for bcast and allreduce
// with the "coll.algorithm" cvar set to flat vs auto (the topology plan),
// and prints the speedup table that feeds EXPERIMENTS.md.
//
// `--smoke` is the CI fence: 8 nodes x 8 ppn, 64 KiB allreduce — the
// hierarchical path must be at least 2x faster than the flat trees it
// replaced, and must complete the on-node movement with zero payload
// copies (coll.payload_copies counts same-node fabric sends carrying
// payload; leaders-only wire traffic leaves it at zero).

#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "common.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::bench {
namespace {

struct Shape {
  int nodes;
  int ppn;
};

/// Mean per-op latency of `iters` back-to-back collectives, worst rank.
/// A barrier separates warmup from the timed window so stragglers from
/// setup don't leak into the measurement.
double timed_us(int nodes, int ppn, std::size_t bytes, bool bcast_op,
                int iters) {
  RankSamples worst;
  const int count = static_cast<int>(bytes / sizeof(std::int64_t));
  run_cluster(nodes, ppn, [&](sim::Process&) {
    init();
    Communicator w = comm_world();
    std::vector<std::int64_t> buf(static_cast<std::size_t>(count), 1);
    std::vector<std::int64_t> out(static_cast<std::size_t>(count), 0);
    auto once = [&] {
      if (bcast_op) {
        w.bcast(buf.data(), count, Datatype::int64(), 0);
      } else {
        w.allreduce(buf.data(), out.data(), count, Datatype::int64(),
                    Op::sum());
      }
    };
    for (int i = 0; i < 2; ++i) {
      once();
    }
    w.barrier();
    base::Stopwatch sw;
    for (int i = 0; i < iters; ++i) {
      once();
    }
    worst.add(sw.elapsed_us() / iters);
    finalize();
  });
  return worst.max();
}

double with_algo(const char* algo, int nodes, int ppn, std::size_t bytes,
                 bool bcast_op, int iters) {
  obs::cvar_write("coll.algorithm", algo);
  const double us = timed_us(nodes, ppn, bytes, bcast_op, iters);
  obs::cvar_write("coll.algorithm", "auto");
  return us;
}

void run_sweep() {
  const Shape shapes[] = {{1, 8}, {4, 4}, {8, 8}};
  const std::size_t sizes[] = {8, 512, 4096, 65536, 262144};
  for (bool bcast_op : {true, false}) {
    print_header(std::string("coll sweep: ") +
                     (bcast_op ? "bcast" : "allreduce"),
                 "mean us/op, worst rank; speedup = flat / hier");
    base::Table t({"shape", "bytes", "flat us", "hier us", "speedup"});
    for (const Shape& sh : shapes) {
      for (std::size_t bytes : sizes) {
        const int iters = bytes >= 65536 ? 8 : 16;
        const double flat =
            with_algo("flat", sh.nodes, sh.ppn, bytes, bcast_op, iters);
        const double hier =
            with_algo("auto", sh.nodes, sh.ppn, bytes, bcast_op, iters);
        t.add_row({std::to_string(sh.nodes) + "x" + std::to_string(sh.ppn),
                   std::to_string(bytes), base::Table::fmt(flat, 1),
                   base::Table::fmt(hier, 1),
                   base::Table::fmt(flat / hier, 2)});
      }
    }
    t.print(std::cout);
  }
}

int run_smoke(int argc, char** argv) {
  constexpr int kNodes = 8;
  constexpr int kPpn = 8;
  constexpr std::size_t kBytes = 65536;
  constexpr int kIters = 10;

  const double flat = with_algo("flat", kNodes, kPpn, kBytes, false, kIters);
  base::counters().reset();
  const double hier = with_algo("auto", kNodes, kPpn, kBytes, false, kIters);
  const std::uint64_t copies = base::counters().value("coll.payload_copies");

  std::cout << "64-rank 64 KiB allreduce: flat " << base::Table::fmt(flat, 1)
            << " us, hier " << base::Table::fmt(hier, 1) << " us, speedup "
            << base::Table::fmt(flat / hier, 2) << "\n";
  record_metric("hier_speedup", flat / hier, "higher");
  record_metric("payload_copies", static_cast<double>(copies), "lower");
  print_counters_json("bench_coll");
  print_metrics_json("bench_coll");
  write_bench_json(argc, argv, "bench_coll");

  const bool fast_enough = hier * 2.0 <= flat;
  const bool zero_copy = copies == 0;
  const bool pass = fast_enough && zero_copy;
  std::cout << "COLL_SMOKE " << (pass ? "PASS" : "FAIL") << " (speedup "
            << base::Table::fmt(flat / hier, 2) << ", budget 2.00; on-node "
            << "payload copies " << copies << ", budget 0)\n";
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace sessmpi::bench

int main(int argc, char** argv) {
  using namespace sessmpi;
  using namespace sessmpi::bench;
  std::cout << "bench_coll: hierarchical vs flat collectives "
               "(--smoke for the CI gate)\n";
  if (flag_present(argc, argv, "--smoke")) {
    return run_smoke(argc, argv);
  }
  run_sweep();
  print_counters_json("bench_coll");
  return 0;
}
