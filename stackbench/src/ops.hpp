#pragma once

// The instrumented public-API operations the workloads and the layer
// probes are built from. Every call into a layer sits inside a bench span
// ("call.<layer>.<op>"); timing helpers return the wall time of the calls
// alone, and each operation's correctness check is a separate function so
// the caller can keep checks out of its timed window.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sessmpi/ckpt/ckpt.hpp"

namespace stackbench {

inline constexpr int kHaloDoubles = 512;    ///< 4 KiB halo, at the eager limit
inline constexpr int kBigDoubles = 8192;    ///< 64 KiB float64 allreduce
inline constexpr int kTagHaloRight = 10;
inline constexpr int kTagHaloLeft = 11;
inline constexpr int kTagToken = 12;
inline constexpr int kTagRingStream = 13;

struct Ring {
  int me = 0;
  int n = 1;
  int left = 0;
  int right = 0;
};
Ring ring_of(const Communicator& c);

// --- session set-up / teardown ---------------------------------------------------

/// One rank's path to its first communicator: Session::init,
/// group_from_pset("mpi://world"), create_from_group, and one ring token
/// exchange (the first contact, which runs the lazy modex and the exCID
/// handshake). Times are per step, in ns; `ready_at_ns` is the absolute
/// time the first message was exchanged.
struct Setup {
  Session session;
  Group group = Group::empty();
  Communicator comm;
  std::int64_t init_ns = 0;
  std::int64_t group_ns = 0;
  std::int64_t create_ns = 0;
  std::int64_t first_msg_ns = 0;
  std::int64_t ready_at_ns = 0;
};
Setup session_setup(const std::string& tag, std::uint64_t seed,
                    std::uint64_t salt, Tally& t);
/// Free the communicator and finalize the session.
void teardown(Setup& s);

/// Ring exchange of one seeded int32 token; checks the left neighbour's
/// token arrived. Returns the exchange's wall time.
std::int64_t ring_token(const Communicator& c, std::uint64_t seed,
                        std::uint64_t salt, Tally& t);

// --- stencil-shaped operations ---------------------------------------------------

/// Both-direction ring halo of 4 KiB float64 each way.
struct Halo {
  std::vector<double> to_right = std::vector<double>(kHaloDoubles);
  std::vector<double> to_left = std::vector<double>(kHaloDoubles);
  std::vector<double> from_left = std::vector<double>(kHaloDoubles);
  std::vector<double> from_right = std::vector<double>(kHaloDoubles);
};
/// Write this rank's seeded halo values for `step`.
void halo_fill(Halo& h, const Ring& ring, std::uint64_t seed,
               std::uint64_t step);
/// The exchange itself (two sendrecvs); returns its wall time.
std::int64_t halo_exchange(const Communicator& c, const Ring& ring, Halo& h);
/// Each received halo must carry the sending neighbour's pattern.
void halo_check(const Halo& h, const Ring& ring, std::uint64_t seed,
                std::uint64_t step, Tally& t);

/// 8 B float64 sum of an integer-valued seeded contribution per rank.
struct SmallReduce {
  double send = 0;
  double recv = 0;
};
void small_fill(SmallReduce& r, const Ring& ring, std::uint64_t seed,
                std::uint64_t step);
std::int64_t allreduce_8b(const Communicator& c, SmallReduce& r);
void small_check(const SmallReduce& r, const Ring& ring, std::uint64_t seed,
                 std::uint64_t step, Tally& t);

/// 64 KiB float64 sum: element i of rank r's contribution is base[i] + h_r,
/// so the exact sum is n * base[i] + sum(h_r).
struct BigReduce {
  explicit BigReduce(std::uint64_t seed);
  std::vector<double> base;
  std::vector<double> send = std::vector<double>(kBigDoubles);
  std::vector<double> recv = std::vector<double>(kBigDoubles);
};
void big_fill(BigReduce& b, const Ring& ring, std::uint64_t seed,
              std::uint64_t step);
std::int64_t allreduce_64k(const Communicator& c, BigReduce& b);
void big_check(const BigReduce& b, const Ring& ring, std::uint64_t seed,
               std::uint64_t step, Tally& t);

std::int64_t barrier(const Communicator& c);

/// Communicator::agree; `agreed` receives the AND of all contributions,
/// which must be a subset of this rank's own bits.
std::int64_t agree(const Communicator& c, std::uint64_t contribution,
                   std::uint64_t& agreed, Tally& t);

/// RS(4,2) erasure-coded in-memory checkpoint configuration, no spill.
ckpt::Config rs42();
std::int64_t ckpt_save(ckpt::Checkpointer& ck, const Communicator& c,
                       Tally& t);

/// One window of ring isends (to the right neighbour) and irecvs (from the
/// left) of `bytes` each, every send stamped with (seed, salt, index) at
/// both ends; checks every received stamp. Returns the window's wall time.
std::int64_t ring_isend_window(const Communicator& c, const Ring& ring,
                               std::vector<std::vector<std::byte>>& sbuf,
                               std::vector<std::vector<std::byte>>& rbuf,
                               std::uint64_t seed, std::uint64_t salt,
                               Tally& t);

/// Stamp / read the 8-byte words at both ends of a message buffer.
void stamp(std::vector<std::byte>& buf, std::uint64_t word);
bool stamped(const std::vector<std::byte>& buf, std::uint64_t word);

}  // namespace stackbench
