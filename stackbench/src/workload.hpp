#pragma once

// What the three workloads share: zero-cost cluster construction, repeated
// timed set-ups, the traced-run harness, and the assembly of the per-layer
// metrics from a traced run's ledger and counter window.

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "ledger.hpp"
#include "sessmpi/sim/cluster.hpp"

namespace stackbench {

void run_pt2pt(const Args& args, Report& rep);
void run_stencil(const Args& args, Report& rep);
void run_startup(const Args& args, Report& rep);

/// Zero-cost cluster options: wall time is the stack's own software time.
sim::Cluster::Options zero_opts(int nodes, int ppn);

/// Select the rank scheduler ("fibers" or "threads") for later runs.
void use_scheduler(const char* mode);

/// Timed cluster construction plus the per-rank set-up of ops.hpp.
struct SetupTimes {
  std::vector<double> setup_s;   ///< cluster ctor start -> last rank ready
  std::vector<double> build_ms;  ///< Cluster constructor alone
};

/// Build a `nodes` x `ppn` cluster `count` times; every rank sets up its
/// first communicator, exchanges one ring token, and tears down.
void repeat_setups(int nodes, int ppn, int count, std::uint64_t seed,
                   SetupTimes& out, Report& rep);

/// Traced-run harness: ring sizing, the traced windows (tracer on plus
/// counter deltas), and the ledger once every writer has quiesced.
class Tracing {
 public:
  explicit Tracing(std::size_t ring_events);
  /// Bracket one traced window. Call with no rank running on `fab`'s
  /// cluster, from the main thread.
  void start(fabric::Fabric& fab);
  void stop(fabric::Fabric& fab);
  /// Collect and fold the events; call after every traced cluster died.
  Ledger finish(Report& rep);
  [[nodiscard]] const TraceWindow& window() const noexcept { return window_; }

 private:
  TraceWindow window_;
};

/// Inputs of the per-layer metrics that do not come from the ledger or
/// the counter window.
struct LayerInputs {
  double cluster_build_ms = 0;
  std::size_t cluster_builds = 0;
  std::uint64_t ranks_set_up = 0;  ///< rank set-ups inside traced windows
  double overhead_ratio = 0;
  std::string overhead_base;
};

/// Emit every per-layer metric of BENCHMARK.json.
void report_layers(const Ledger& l, const TraceWindow& w,
                   const LayerInputs& in, Report& rep);

}  // namespace stackbench
