#pragma once

// Shared infrastructure for the figure-reproduction benchmarks: calibrated
// clusters, cross-rank timing collection, and paper-style table output.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/obs/sampler.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/trace_json.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/sim/cluster.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi::bench {

inline sim::Cluster::Options calibrated_opts(int nodes, int ppn) {
  sim::Cluster::Options o;
  o.topo = {nodes, ppn};
  o.cost = base::CostModel::calibrated();
  return o;
}

/// Collects one double per rank, thread-safely; reduces afterwards.
class RankSamples {
 public:
  void add(double v) {
    std::lock_guard lock(mu_);
    samples_.push_back(v);
  }
  [[nodiscard]] double max() const {
    std::lock_guard lock(mu_);
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }
  [[nodiscard]] double mean() const {
    std::lock_guard lock(mu_);
    if (samples_.empty()) {
      return 0.0;
    }
    double s = 0;
    for (double v : samples_) {
      s += v;
    }
    return s / static_cast<double>(samples_.size());
  }
  [[nodiscard]] std::vector<double> values() const {
    std::lock_guard lock(mu_);
    return samples_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

/// Run `body` on a fresh calibrated cluster.
inline void run_cluster(int nodes, int ppn,
                        const std::function<void(sim::Process&)>& body) {
  sim::Cluster cluster{calibrated_opts(nodes, ppn)};
  cluster.run(body);
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) {
    std::cout << note << "\n";
  }
  std::cout << "\n";
}

/// Tagged one-line JSON dump of every process-wide counter, printed by each
/// bench binary alongside its timing tables. The "COUNTERS_JSON " prefix is
/// the extraction marker tools/report_merge scans for when merging several
/// bench outputs into one EXPERIMENTS.md-ready table.
inline void print_counters_json(const std::string& bench_name) {
  std::cout << "\nCOUNTERS_JSON {\"bench\": \"" << bench_name
            << "\", \"counters\": ";
  base::counters().print_json(std::cout);
  std::cout << "}\n";
}

/// Value of a `--key=value` argument, or nullopt.
inline std::optional<std::string> arg_value(int argc, char** argv,
                                            const char* prefix) {
  const std::size_t len = std::strlen(prefix);
  std::optional<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) {
      out = argv[i] + len;
    }
  }
  return out;
}

/// One headline result a bench wants regression-gated. `better` says which
/// direction is an improvement, so the gate in `report_merge --baseline`
/// knows that a falling msg_rate is a regression but a falling latency is
/// not.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  const char* better = "lower";  ///< "lower" | "higher"
};

inline std::vector<BenchMetric>& bench_metrics() {
  static std::vector<BenchMetric> metrics;
  return metrics;
}

/// Record one headline metric for this invocation. Printed by
/// print_metrics_json and persisted by write_bench_json; names should be
/// stable across runs — they are the join key against the checked-in
/// BENCH_<bench>.json baselines.
inline void record_metric(const std::string& name, double value,
                          const char* better) {
  bench_metrics().push_back({name, value, better});
}

inline void write_metrics_object(std::ostream& os) {
  os << "{";
  bool first = true;
  for (const auto& m : bench_metrics()) {
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << m.value << ", \"better\": \"" << m.better << "\"}";
    first = false;
  }
  os << "}";
}

/// Tagged one-line JSON dump of the recorded headline metrics — the
/// "METRICS_JSON " marker is what `report_merge --baseline` scans for.
inline void print_metrics_json(const std::string& bench_name) {
  if (bench_metrics().empty()) {
    return;
  }
  std::cout << "METRICS_JSON {\"bench\": \"" << bench_name
            << "\", \"metrics\": ";
  write_metrics_object(std::cout);
  std::cout << "}\n";
}

/// `--bench-json=<dir>`: write the recorded metrics as
/// `<dir>/BENCH_<bench>.json`, the baseline file format consumed by
/// `report_merge --baseline`. Refreshing a checked-in baseline is just
/// re-running the bench with this flag pointed at bench/baselines/.
inline void write_bench_json(int argc, char** argv,
                             const std::string& bench_name) {
  const auto dir = arg_value(argc, argv, "--bench-json=");
  if (!dir || bench_metrics().empty()) {
    return;
  }
  const std::string path = *dir + "/BENCH_" + bench_name + ".json";
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench: cannot write " << path << "\n";
    return;
  }
  out << "{\"bench\": \"" << bench_name << "\", \"metrics\": ";
  write_metrics_object(out);
  out << "}\n";
  std::cout << "BENCH_JSON=" << path << "\n";
}

/// `--metrics=<period_ms>`: start the background pvar sampler for the whole
/// run (via the obs.metrics.period_ms cvar, so the same knob works outside
/// the benches). Returns the period for flush_metrics' symmetry.
inline std::optional<int> metrics_period_from_args(int argc, char** argv) {
  const auto v = arg_value(argc, argv, "--metrics=");
  if (!v) {
    return std::nullopt;
  }
  if (!obs::cvar_write("obs.metrics.period_ms", *v)) {
    std::cerr << "bad --metrics=" << *v << " (period in ms, 0..60000)\n";
    std::exit(2);
  }
  return std::stoi(*v);
}

/// Stop the sampler and export the collected time-series as
/// `<dir>/<bench>.metrics.jsonl` (one `{"ts_ns":..,"pvars":{..}}` object
/// per line). Prints a `METRICS=<path>` marker like TRACE=/COUNTERS_JSON.
inline void flush_metrics(const std::optional<int>& period,
                          const std::string& dir,
                          const std::string& bench_name) {
  if (!period) {
    return;
  }
  obs::MetricsSampler& sampler = obs::MetricsSampler::instance();
  sampler.set_period_ms(0);
  sampler.sample_now();  // final snapshot so even a short run has data
  const std::string path = dir + "/" + bench_name + ".metrics.jsonl";
  const std::size_t lines = sampler.write_jsonl(path);
  std::cout << "METRICS=" << path << " (" << lines << " samples)\n";
}

/// Apply `--sched=threads|fibers` (if present) to the `sim.scheduler` cvar,
/// so one bench binary can be invoked once per sweep cell. Returns the
/// effective scheduler.
inline std::string apply_mode_flags(int argc, char** argv) {
  sim::register_scheduler_cvar();
  if (auto v = arg_value(argc, argv, "--sched=")) {
    if (!obs::cvar_write("sim.scheduler", *v)) {
      std::cerr << "bad --sched=" << *v << " (threads|fibers)\n";
      std::exit(2);
    }
  }
  return obs::cvar_read("sim.scheduler").value_or("?");
}

/// Peak RSS ("VmHWM") or current RSS ("VmRSS") in KiB from
/// /proc/self/status; 0 if unavailable (non-Linux). VmHWM is monotone over
/// the process lifetime, so memory-density cells run as separate
/// invocations.
inline long read_proc_status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

/// True if `name` appears among the args.
inline bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

/// `--trace <dir>` / `--trace=<dir>`: output directory for per-rank Chrome
/// trace files. Parsing it also enables the tracer for the whole run.
inline std::optional<std::string> trace_dir_from_args(int argc, char** argv) {
  std::optional<std::string> dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      dir = argv[i + 1];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      dir = argv[i] + 8;
    }
  }
  if (dir) {
    obs::Tracer::instance().set_enabled(true);
  }
  return dir;
}

/// Flush the collected trace into per-rank files under `dir` and print one
/// `TRACE=<path>` line per file (the driver-side marker, like
/// COUNTERS_JSON). Call after every cluster has been destroyed — the
/// tracer's rings may only be read once all writer threads are quiescent.
inline void flush_trace(const std::optional<std::string>& dir,
                        const std::string& bench_name) {
  if (!dir) {
    return;
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  const auto events = tracer.collect();
  const auto paths = obs::write_rank_traces(*dir, bench_name, events);
  for (const auto& path : paths) {
    std::cout << "TRACE=" << path << "\n";
  }
  if (tracer.evicted() > 0) {
    std::cout << "TRACE_EVICTED=" << tracer.evicted()
              << " (oldest events dropped; raise obs.trace.ring_events)\n";
  }
  std::cout << "merge with: trace_merge";
  for (const auto& path : paths) {
    std::cout << ' ' << path;
  }
  std::cout << " -o merged.trace.json\n";
}

}  // namespace sessmpi::bench
