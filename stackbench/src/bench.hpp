#pragma once

// Shared pieces of the zero-cost stack benchmark: run arguments, seeded
// value derivation, per-rank correctness tallies, sample statistics, the
// bench-side span macro, and the report that prints the ledger and the
// final result line.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/obs/trace.hpp"

namespace stackbench {

using namespace sessmpi;  // NOLINT: the benchmark drives the public API only
using base::now_ns;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// --- seeded values ------------------------------------------------------------

/// splitmix64 finalizer: every payload, state word and token derives from
/// the run seed through this, so one seed gives one input set.
inline std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b) noexcept {
  return mix(a ^ mix(b));
}
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b,
                         std::uint64_t c) noexcept {
  return mix(mix(a, b), c);
}
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         std::uint64_t d) noexcept {
  return mix(mix(a, b, c), d);
}

/// Integer-valued double below 2^20: sums of a few thousand of these are
/// exact in float64, so reductions can be checked bit for bit.
inline double small_int(std::uint64_t h) noexcept {
  return static_cast<double>(h & 0xFFFFFu);
}

// --- correctness accounting ------------------------------------------------------

/// Checks and operations of one rank (merged after its cluster run, so the
/// hot loops never touch a shared cache line). `failed` counts failed
/// checks and operations that threw.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  void op(std::uint64_t n = 1) noexcept { attempted += n; }
  void check(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failure.empty()) {
        first_failure = what;
      }
    }
  }
};

// --- statistics -------------------------------------------------------------------

/// Quantile by linear interpolation between closest ranks (numpy's default).
double quantile(std::vector<double> v, double q);

/// Element-wise maximum over ranks: `per_rank[r][i]` is rank r's sample i;
/// every rank must hold the same number of samples. The result is the
/// worst-rank time of each collective event.
std::vector<double> worst_rank(const std::vector<std::vector<double>>& per_rank);

/// `stat(block)` for every block. A measured run is split into blocks
/// (fresh clusters, or start-up cycles, each with new carrier threads the
/// OS places afresh); a timing is reported as the median of its per-block
/// values, so one unlucky placement or noisy interval cannot move it.
template <typename Block, typename Stat>
std::vector<double> per_block(const std::vector<Block>& blocks, Stat&& stat) {
  std::vector<double> out;
  out.reserve(blocks.size());
  for (const Block& b : blocks) {
    out.push_back(stat(b));
  }
  return out;
}

/// Samples after the first `skip` (warm-up excluded).
std::vector<double> after(const std::vector<double>& v, std::size_t skip);

// --- process probes -----------------------------------------------------------------

/// Field of /proc/self/status in its own unit (kB for Vm*, count for
/// Threads); 0 when unavailable.
long proc_status(const char* key);

/// Peak OS thread count seen by sample() calls; the run fails when the
/// threads doing work exceed the host's cores.
class ThreadWatch {
 public:
  static ThreadWatch& instance();
  void sample() noexcept;
  [[nodiscard]] long peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<long> peak_{0};
};

/// Counter pvar value (0 when the counter was never touched).
std::uint64_t counter(const char* name);

// --- bench-side spans -------------------------------------------------------------

// A span around one call into a layer, recorded from the benchmark's own
// code. Names follow "call.<layer>.<op>" (the ledger attributes the span's
// self time to <layer>) or "app.<section>" (a traced section's root). With
// tracing off a span costs one relaxed load.
#define STACKBENCH_CONCAT_(a, b) a##b
#define STACKBENCH_CONCAT(a, b) STACKBENCH_CONCAT_(a, b)
#define STACKBENCH_SPAN(name) \
  ::sessmpi::obs::Span STACKBENCH_CONCAT(stackbench_span_, __LINE__)(name, "bench")

// --- report --------------------------------------------------------------------------

/// Collects ledger lines and metrics; prints the final result line. Metrics
/// are keyed by their BENCHMARK.json name: end-to-end metrics are emitted
/// in untraced runs, per-layer metrics in traced runs.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// End-to-end metric. `what` names the workload-specific quantity behind
  /// the generic name; `samples` is the sample count the value summarizes.
  void e2e(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& what);
  /// End-to-end metric as the median of per-block values; the block
  /// values are printed beneath it.
  void e2e_blocks(const std::string& name, const std::vector<double>& blocks,
                  const std::string& unit, std::size_t samples,
                  const std::string& what);
  /// Per-layer metric; `base` states what a ratio or timing was taken over.
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& base);
  /// Free-form ledger line (reference and budget lines, breakdowns).
  void line(const std::string& text);

  void merge(const Tally& t);
  void fail(const std::string& why);

  /// Print the ledger and the result line; returns the process exit code.
  int finish();

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  bool trace_;
  std::vector<std::string> lines_;
  std::map<std::string, Metric> metrics_;
  Tally tally_;
};

/// Fixed-point with `precision` decimals.
std::string fmt(double v, int precision = 3);
/// Six significant digits.
std::string sig(double v);

}  // namespace stackbench
