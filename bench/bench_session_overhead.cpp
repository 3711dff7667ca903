// Ablation of the §III-B5 restructuring: MPI_Session_init is "local and
// light-weight" — but the *first* session of an init cycle pays the shared
// MPI resource initialization (MCA component load, PMIx_Init, PML setup),
// while subsequent overlapping sessions only pay the handle cost, and a
// fresh session after full teardown pays everything again.
//
// Three rows: first session of a cycle, Nth overlapping session, and first
// session after a finalize-everything teardown. This quantifies both the
// refcounted-subsystem sharing and the repeatable-initialization property.

#include "common.hpp"

namespace sessmpi::bench {
namespace {

struct SessionCosts {
  double first_ms = 0;
  double nth_ms = 0;
  double after_teardown_ms = 0;
};

SessionCosts measure(int nodes, int ppn) {
  RankSamples first, nth, after;
  run_cluster(nodes, ppn, [&](sim::Process&) {
    // First session: pays MCA + PMIx + PML + instance init.
    base::Stopwatch sw;
    Session s1 = Session::init();
    first.add(sw.elapsed_ms());

    // Overlapping sessions: handle-only.
    constexpr int kOverlap = 8;
    std::vector<Session> extra;
    sw.reset();
    for (int i = 0; i < kOverlap; ++i) {
      extra.push_back(Session::init());
    }
    nth.add(sw.elapsed_ms() / kOverlap);

    for (auto& s : extra) {
      s.finalize();
    }
    s1.finalize();  // last reference: full teardown runs here

    // Re-initialization: the cycle starts over and pays resource init
    // again (everything except the once-per-process NFS component load).
    sw.reset();
    Session s2 = Session::init();
    after.add(sw.elapsed_ms());
    s2.finalize();
  });
  return {first.mean(), nth.mean(), after.mean()};
}

}  // namespace
}  // namespace sessmpi::bench

int main(int argc, char** argv) {
  using namespace sessmpi;
  using namespace sessmpi::bench;
  const std::string sched = apply_mode_flags(argc, argv);
  std::cout << "bench_session_overhead: Session_init cost decomposition "
               "(§III-B5 restructuring), sched="
            << sched << "\n";
  print_header("Session_init cost by position in the init cycle",
               "ms per Session_init; overlapping sessions share the live "
               "subsystems via reference counting.");
  base::Table t({"nodes", "ppn", "first (ms)", "overlapping (ms)",
                 "after teardown (ms)", "sharing gain"});
  struct Shape {
    int nodes, ppn;
  };
  // Default shapes mirror the paper table; `--scale-nodes=N [--scale-ppn=P]`
  // swaps in one large cell so the sweep driver can push this ablation to
  // 4k-16k ranks alongside bench_init.
  std::vector<Shape> shapes{{1, 8}, {2, 8}, {2, 28}};
  if (auto nodes_arg = arg_value(argc, argv, "--scale-nodes=")) {
    shapes = {{std::atoi(nodes_arg->c_str()),
               std::atoi(arg_value(argc, argv, "--scale-ppn=")
                             .value_or("64")
                             .c_str())}};
  }
  for (Shape sh : shapes) {
    const auto c = measure(sh.nodes, sh.ppn);
    t.add_row({std::to_string(sh.nodes), std::to_string(sh.ppn),
               base::Table::fmt(c.first_ms), base::Table::fmt(c.nth_ms, 4),
               base::Table::fmt(c.after_teardown_ms),
               base::Table::fmt(c.first_ms / std::max(c.nth_ms, 1e-9), 0) +
                   "x"});
  }
  t.print(std::cout);
  std::cout << "\nCheckpoints: overlapping Session_init costs orders of "
               "magnitude less than the first (subsystems shared); re-init "
               "after teardown pays resource init again but not the NFS "
               "component load (cached per process lifetime).\n";
  print_counters_json("bench_session_overhead");
  return 0;
}
