// Figure 3 reproduction: MPI initialization time using MPI_Init() vs the
// MPI Sessions sequence (Session_init + Group_from_pset +
// Comm_create_from_group), for 1 process/node (Fig. 3a) and a fully
// subscribed 28 processes/node (Fig. 3b), across node counts.
//
// Expected shape (paper §IV-C1): Sessions costs ~20% more than MPI_Init;
// at 28 ppn roughly 30% of the sessions path is spent initializing MPI
// resources for the first session handle and the rest constructing the
// initial communicator; at 1 ppn the resource-initialization step
// dominates. Absolute times are milliseconds here (the paper's seconds are
// scaled by the cost model; see DESIGN.md §2).

#include "common.hpp"

namespace sessmpi::bench {
namespace {

struct InitResult {
  double init_ms = 0;          // MPI_Init (world model)
  double sess_total_ms = 0;    // full sessions sequence
  double sess_handle_ms = 0;   // Session_init portion (resource init)
  double sess_comm_ms = 0;     // group + comm construction portion
};

InitResult measure(int nodes, int ppn) {
  InitResult r;
  {
    RankSamples init_time;
    run_cluster(nodes, ppn, [&](sim::Process&) {
      base::Stopwatch sw;
      init();
      init_time.add(sw.elapsed_ms());
      comm_world().barrier();
      finalize();
    });
    r.init_ms = init_time.mean();
  }
  {
    RankSamples total, handle, comm_create;
    run_cluster(nodes, ppn, [&](sim::Process&) {
      base::Stopwatch sw;
      Session s = Session::init();
      const double t_handle = sw.elapsed_ms();
      Group g = s.group_from_pset("mpi://world");
      Communicator c = Communicator::create_from_group(g, "osu_init");
      const double t_total = sw.elapsed_ms();
      handle.add(t_handle);
      comm_create.add(t_total - t_handle);
      total.add(t_total);
      c.barrier();
      c.free();
      s.finalize();
    });
    r.sess_total_ms = total.mean();
    r.sess_handle_ms = handle.mean();
    r.sess_comm_ms = comm_create.mean();
  }
  return r;
}

// --- 4k-16k scale cells (ISSUE: 10k-rank init scalability) ---------------
//
// One cell = one (nodes, ppn, sched) configuration, timed over the
// sessions-only path: Session_init + Group_from_pset + create_from_group,
// then a one-neighbour ring exchange — the minimal "active peers" pattern
// the lazy modex is sized for (each rank resolves exactly one endpoint) —
// and a barrier. The world-model half of Figure 3 is deliberately skipped:
// these cells size the sessions path, which Figure 3 already compares
// against MPI_Init at paper scale.
//
// Cells are meant to run as separate invocations (--scale-nodes=N): VmHWM
// is a process-lifetime high-water mark, so per-cell memory is only
// meaningful when each cell owns the process.

struct ScaleCell {
  int nodes = 0, ppn = 0;
  std::string sched;
  double sess_total_ms = 0, sess_handle_ms = 0, sess_comm_ms = 0;
  double wall_s = 0;
  std::uint64_t lazy_fetches = 0, cache_hits = 0, fiber_switches = 0;
  long hwm_kib = 0;   // peak RSS: pages actually touched
  long peak_kib = 0;  // peak address space: includes reserved rank stacks
};

ScaleCell scale_run(int nodes, int ppn, const std::string& sched) {
  ScaleCell cell;
  cell.nodes = nodes;
  cell.ppn = ppn;
  cell.sched = sched;
  const auto fetches0 =
      obs::pvar_read_counter("pmix.modex_lazy_fetches").value_or(0);
  const auto hits0 =
      obs::pvar_read_counter("pmix.modex_cache_hits").value_or(0);
  const auto switches0 =
      obs::pvar_read_counter("sim.fiber_switches").value_or(0);

  RankSamples total, handle, comm_create;
  base::Stopwatch wall;
  run_cluster(nodes, ppn, [&](sim::Process&) {
    base::Stopwatch sw;
    Session s = Session::init();
    const double t_handle = sw.elapsed_ms();
    Group g = s.group_from_pset("mpi://world");
    Communicator c = Communicator::create_from_group(g, "scale_init");
    const double t_total = sw.elapsed_ms();
    handle.add(t_handle);
    comm_create.add(t_total - t_handle);
    total.add(t_total);

    const int n = c.size();
    const int me = c.rank();
    std::int32_t token = me, from_left = -1;
    c.sendrecv(&token, 1, Datatype::int32(), (me + 1) % n, 7, &from_left, 1,
               Datatype::int32(), (me + n - 1) % n, 7);
    if (from_left != (me + n - 1) % n) {
      throw Error(ErrClass::other, "scale ring token mismatch");
    }
    c.barrier();
    c.free();
    s.finalize();
  });

  cell.wall_s = wall.elapsed_ms() / 1000.0;
  cell.sess_total_ms = total.mean();
  cell.sess_handle_ms = handle.mean();
  cell.sess_comm_ms = comm_create.mean();
  cell.lazy_fetches =
      obs::pvar_read_counter("pmix.modex_lazy_fetches").value_or(0) - fetches0;
  cell.cache_hits =
      obs::pvar_read_counter("pmix.modex_cache_hits").value_or(0) - hits0;
  cell.fiber_switches =
      obs::pvar_read_counter("sim.fiber_switches").value_or(0) - switches0;
  cell.hwm_kib = read_proc_status_kib("VmHWM");
  cell.peak_kib = read_proc_status_kib("VmPeak");
  return cell;
}

void print_scale_cell(const ScaleCell& c) {
  const long n = static_cast<long>(c.nodes) * c.ppn;
  std::cout << "SCALE_RESULT {\"bench\": \"bench_init\", \"nodes\": "
            << c.nodes << ", \"ppn\": " << c.ppn << ", \"ranks\": " << n
            << ", \"sched\": \"" << c.sched
            << "\", \"sess_total_ms\": " << base::Table::fmt(c.sess_total_ms)
            << ", \"sess_handle_ms\": " << base::Table::fmt(c.sess_handle_ms)
            << ", \"sess_comm_ms\": " << base::Table::fmt(c.sess_comm_ms)
            << ", \"wall_s\": " << base::Table::fmt(c.wall_s)
            << ", \"modex_lazy_fetches\": " << c.lazy_fetches
            << ", \"modex_cache_hits\": " << c.cache_hits
            << ", \"fiber_switches\": " << c.fiber_switches
            << ", \"vm_hwm_kib\": " << c.hwm_kib
            << ", \"vm_peak_kib\": " << c.peak_kib << "}\n";
}

// CI gate: 4096 ranks on fibers, under a wall-clock budget, and
// the lazy modex must stay O(active peers): the ring + barrier touch a
// handful of endpoints per rank, so total fetches must sit in [n, 8n] —
// orders of magnitude below the n^2 of a full modex. Peak RSS per rank
// must stay under kMaxKibPerRank: a collective plan that kept O(n) state
// per rank (n^2 over the job) read ~76 KiB here, node runs read ~27 KiB
// (Release, 4-core x86-64 host).
int smoke(int argc, char** argv) {
  constexpr int kNodes = 64, kPpn = 64;
  constexpr double kMaxKibPerRank = 32;
  const double budget_s =
      std::strtod(arg_value(argc, argv, "--budget=").value_or("120").c_str(),
                  nullptr);
  obs::cvar_write("sim.scheduler", "fibers");
  const ScaleCell c = scale_run(kNodes, kPpn, "fibers");
  print_scale_cell(c);
  const std::uint64_t n = static_cast<std::uint64_t>(kNodes) * kPpn;
  const double kib_per_rank =
      static_cast<double>(c.hwm_kib) / static_cast<double>(n);
  bool ok = true;
  if (c.wall_s > budget_s) {
    std::cout << "SMOKE FAIL: wall " << base::Table::fmt(c.wall_s)
              << "s exceeds budget " << budget_s << "s\n";
    ok = false;
  }
  if (c.lazy_fetches < n || c.lazy_fetches > 8 * n) {
    std::cout << "SMOKE FAIL: modex_lazy_fetches=" << c.lazy_fetches
              << " outside [n, 8n] = [" << n << ", " << 8 * n
              << "] (n^2 would be " << n * n << ")\n";
    ok = false;
  }
  if (kib_per_rank > kMaxKibPerRank) {
    std::cout << "SMOKE FAIL: peak RSS " << base::Table::fmt(kib_per_rank)
              << " KiB per rank exceeds " << kMaxKibPerRank << " KiB\n";
    ok = false;
  }
  record_metric("wall_s", c.wall_s, "lower");
  record_metric("rss_kib_per_rank", kib_per_rank, "lower");
  record_metric("lazy_fetches_per_rank",
                static_cast<double>(c.lazy_fetches) / static_cast<double>(n),
                "lower");
  print_metrics_json("bench_init_smoke");
  write_bench_json(argc, argv, "bench_init_smoke");
  std::cout << (ok ? "SMOKE PASS" : "SMOKE FAIL") << ": " << n
            << " ranks in " << base::Table::fmt(c.wall_s) << "s, "
            << c.lazy_fetches << " lazy fetches (n=" << n << ", n^2 would be "
            << n * n << "), peak RSS " << c.hwm_kib / 1024 << " MiB ("
            << base::Table::fmt(kib_per_rank) << " KiB per rank)\n";
  return ok ? 0 : 1;
}

void figure(const char* name, int ppn, const std::vector<int>& node_counts) {
  print_header(name,
               "osu_init-style startup cost, " + std::to_string(ppn) +
                   " process(es) per node. Times in ms (paper: seconds; "
                   "scaled by the cost model).");
  base::Table t({"nodes", "procs", "MPI_Init (ms)", "Sessions (ms)",
                 "overhead", "handle-init share", "comm-create share"});
  for (int nodes : node_counts) {
    const InitResult r = measure(nodes, ppn);
    const double overhead = r.sess_total_ms / r.init_ms - 1.0;
    t.add_row({std::to_string(nodes), std::to_string(nodes * ppn),
               base::Table::fmt(r.init_ms), base::Table::fmt(r.sess_total_ms),
               base::Table::fmt(overhead * 100, 1) + "%",
               base::Table::fmt(r.sess_handle_ms / r.sess_total_ms * 100, 1) +
                   "%",
               base::Table::fmt(r.sess_comm_ms / r.sess_total_ms * 100, 1) +
                   "%"});
  }
  t.print(std::cout);
}

}  // namespace
}  // namespace sessmpi::bench

int main(int argc, char** argv) {
  const auto trace_dir =
      sessmpi::bench::trace_dir_from_args(argc, argv);
  using namespace sessmpi;
  using namespace sessmpi::bench;
  const std::string sched = apply_mode_flags(argc, argv);

  if (flag_present(argc, argv, "--smoke")) {
    std::cout << "bench_init --smoke: 4096-rank Session_init gate "
                 "(fibers + lazy modex)\n";
    const int rc = smoke(argc, argv);
    print_counters_json("bench_init_smoke");
    return rc;
  }

  if (auto nodes_arg = arg_value(argc, argv, "--scale-nodes=")) {
    const int nodes = std::atoi(nodes_arg->c_str());
    const int ppn =
        std::atoi(arg_value(argc, argv, "--scale-ppn=").value_or("64").c_str());
    std::cout << "bench_init scale cell: " << nodes << " nodes x " << ppn
              << " ppn, sched=" << sched << "\n";
    print_scale_cell(scale_run(nodes, ppn, sched));
    print_counters_json("bench_init_scale");
    flush_trace(trace_dir, "bench_init_scale");
    return 0;
  }

  std::cout << "bench_init: reproduces Figure 3 (MPI startup overhead)\n";
  figure("Figure 3a: 1 MPI process per node", 1, {1, 2, 4, 8, 16});
  figure("Figure 3b: 28 MPI processes per node", 28, {1, 2, 4});
  std::cout << "\nPaper checkpoints: Sessions ~= +20% over MPI_Init; at 28 "
               "ppn the session-handle (resource init) share is ~30%; at 1 "
               "ppn resource init dominates the sessions path.\n";
  print_counters_json("bench_init");
  flush_trace(trace_dir, "bench_init");
  return 0;
}
