#pragma once

// Same-run reference measurements taken outside any cluster (memcpy,
// Datatype pack/unpack, sends on a bare two-endpoint Fabric), the budget
// lines (cores, threads, cache), and the layer probe suite a traced run
// drives on each workload's communicator so every per-layer timing is
// measured on every workload.

#include <cstddef>
#include <cstdint>

#include "bench.hpp"

namespace stackbench {

/// Bytes of the pt2pt 64 KiB stream's window buffer (16 messages of
/// 64 KiB), the memcpy reference size.
inline constexpr std::size_t kWindowBytes = 16u * 64u * 1024u;

struct Reference {
  double memcpy_gbps = 0;
  double pack_byte_ns_per_kib = 0;
  double unpack_byte_ns_per_kib = 0;
  double pack_f64_ns_per_kib = 0;
  double unpack_f64_ns_per_kib = 0;
  double fabric_send_8b_ns = 0;
  double fabric_send_64k_ns = 0;
  std::size_t fabric_sends = 0;  ///< timed sends per size
};

/// Run the reference probes on the calling (main) thread.
Reference measure_reference(std::uint64_t seed, Tally& t);

/// Print the reference and budget lines; in a traced run also the
/// corresponding per-layer metrics.
void report_reference(const Reference& ref, Report& rep);

/// Host cores, fiber workers for `ranks` fibers, and the cache budget.
int host_cores();
int fiber_workers(int ranks);

/// Check the peak thread count against the host's cores and print the
/// budget line. The launching thread only waits for the rank carriers
/// (fiber workers or rank threads) and the fabric pump, so it is not
/// counted as a thread doing work.
void check_thread_budget(Report& rep);

/// Which layer probes a workload needs (the calls its own loop does not
/// make).
struct ProbeMask {
  bool halo = false;
  bool isend = false;
  bool reduce = false;
  bool barrier = false;
  bool agree = false;
  bool ckpt = false;
};

/// Drive `reps` rounds of each selected probe on `c`, inside an
/// "app.probes" section. Collective: every rank of `c` must call it.
void layer_probes(const Communicator& c, const ProbeMask& m, int reps,
                  std::uint64_t seed, Tally& t);

}  // namespace stackbench
