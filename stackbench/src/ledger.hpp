#pragma once

// Per-layer cost ledger of a traced run. Spans from the benchmark's own
// files ("call.<layer>.<op>", "app.<section>") and the spans the stack
// already emits (pml.*, fabric.send, pmix.*, cid.*, coll.*, ft.*, ckpt.*)
// are folded into self time per layer; pvar counters are read as deltas
// over the traced window so every ratio can be printed with its base.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sessmpi/fabric/fabric.hpp"
#include "sessmpi/obs/trace.hpp"

namespace stackbench {

/// The layers a span's self time is charged to. "app" is the benchmark's
/// own code between calls (loops, clocks, checks) inside a traced section.
inline const std::vector<std::string>& ledger_layers() {
  static const std::vector<std::string> layers = {
      "app", "core", "fabric", "pmix", "coll", "ft", "ckpt"};
  return layers;
}

struct Ledger {
  struct SpanStat {
    std::string layer;
    std::vector<double> dur_ns;  ///< one entry per completed span
    double self_ns = 0;
  };
  /// Keyed by span name.
  std::map<std::string, SpanStat> spans;
  /// Self time per layer per section root ("app.pingpong", ...).
  std::map<std::string, std::map<std::string, double>> self_by_root;
  /// Summed root-span duration per section, and how many roots closed.
  std::map<std::string, double> root_ns;
  std::map<std::string, std::uint64_t> root_count;
  std::uint64_t events = 0;
  std::uint64_t unmatched = 0;  ///< ends without a begin, or cut by a reset

  /// p50 of a span's durations in ns (0 when it never closed).
  [[nodiscard]] double p50_ns(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Number of closed spans whose name starts with `prefix`.
  [[nodiscard]] std::size_t count_prefix(const std::string& prefix) const;
};

/// Fold collected trace events (rank tracks only) into a ledger. Only spans
/// nested in an "app.*" root count; a new root resets its track's stack, so
/// spans left open by a tracing toggle never leak into the next section.
Ledger build_ledger(const std::vector<obs::Event>& events);

/// Ledger lines: per section, self time by layer as a share and per root,
/// then the spans with the most self time.
void print_ledger(const Ledger& l, Report& rep);

/// Self-time share of each ledger layer over every section except
/// `excluded_root`, in percent.
std::map<std::string, double> layer_shares(const Ledger& l,
                                           const std::string& excluded_root);

/// Counter and packet deltas over the traced windows of one run. open() and
/// close() bracket each window; deltas accumulate across windows.
class TraceWindow {
 public:
  /// Counters read as deltas (pvar names).
  static const std::vector<const char*>& counters();

  void open(fabric::Fabric* fab);
  void close(fabric::Fabric* fab);
  [[nodiscard]] std::uint64_t delta(const std::string& name) const;
  /// Packets delivered to any endpoint inside the windows.
  [[nodiscard]] std::uint64_t packets() const noexcept { return packets_; }

 private:
  static std::uint64_t delivered(fabric::Fabric* fab);
  std::map<std::string, std::uint64_t> start_;
  std::map<std::string, std::uint64_t> sum_;
  std::uint64_t packets_start_ = 0;
  std::uint64_t packets_ = 0;
  bool opened_ = false;
};

}  // namespace stackbench
