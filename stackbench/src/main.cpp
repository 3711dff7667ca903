// Zero-cost stack benchmark entry point (README.md).
//
//   stackbench --workload pt2pt|stencil|startup --seed N --seconds S --trace 0|1
//
// Prints the ledger, then one JSON result line: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer metrics. Exits non-zero
// when any check or operation failed.

#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "probes.hpp"
#include "workload.hpp"

namespace {

bool parse(int argc, char** argv, stackbench::Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
    } else if (key == "--trace") {
      a.trace = std::strcmp(val, "1") == 0;
      if (!a.trace && std::strcmp(val, "0") != 0) return false;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && a.seconds > 0 && a.seconds <= 600;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stackbench;
  Args a;
  if (!parse(argc, argv, a) ||
      (a.workload != "pt2pt" && a.workload != "stencil" &&
       a.workload != "startup")) {
    std::cerr << "usage: stackbench --workload pt2pt|stencil|startup "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
  }
  Report rep(a.trace);
  rep.line("stackbench workload=" + a.workload +
           " seed=" + std::to_string(a.seed) + " seconds=" + fmt(a.seconds, 1) +
           " trace=" + (a.trace ? "1" : "0") + " cost_model=zero");
  try {
    const std::uint64_t esc0 = counter("fabric.rto_escalations");
    Tally ref_tally;
    const Reference ref = measure_reference(a.seed, ref_tally);
    rep.merge(ref_tally);
    TraceWindow run_counters;
    run_counters.open(nullptr);
    if (a.workload == "pt2pt") {
      run_pt2pt(a, rep);
    } else if (a.workload == "stencil") {
      run_stencil(a, rep);
    } else {
      run_startup(a, rep);
    }
    run_counters.close(nullptr);
    std::string deltas = "counter deltas over the whole workload:";
    for (const char* name : TraceWindow::counters()) {
      deltas.append(" ").append(name).append("=").append(
          std::to_string(run_counters.delta(name)));
    }
    rep.line(deltas);
    report_reference(ref, rep);
    const std::uint64_t esc = counter("fabric.rto_escalations") - esc0;
    rep.line("fabric.rto_escalations over the whole run = " + std::to_string(esc));
    if (esc > 0) {
      rep.fail(std::to_string(esc) + " fabric RTO escalations");
    }
    if (!a.trace) {
      rep.e2e("peak_rss_mib", static_cast<double>(proc_status("VmHWM")) / 1024.0,
              "MiB", 1, "VmHWM of this process, which ran only this workload");
    }
    check_thread_budget(rep);
  } catch (const std::exception& e) {
    rep.fail(std::string("exception: ") + e.what());
  }
  return rep.finish();
}
