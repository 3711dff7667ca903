// Shrink-and-continue: the ULFM recovery loop on top of Sessions, driven by
// a seeded chaos schedule. A stencil-style iteration (ring exchange + global
// residual allreduce) keeps running while the chaos monkey kills a rank
// every few steps; survivors acknowledge the failure, revoke the broken
// communicator, shrink it, and *restore the last coordinated checkpoint*
// (src/ckpt) instead of recomputing — the restored epoch tells every
// survivor the common resume step, and the dead ranks' shards come back via
// the partner copies (the default (1, 1) redundancy sets, which the node map
// places on the other node — no option to re-aim after a shrink).

#include <cstdio>
#include <cstring>
#include <vector>

#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/sim/chaos.hpp"
#include "sessmpi/sim/cluster.hpp"

using namespace sessmpi;

namespace {

constexpr int kSteps = 20;
constexpr int kCkptEvery = 4;  // one epoch per 4 steps
constexpr int kCells = 16;     // stencil cells per rank

/// One relaxation step on this rank's cells (the work being protected).
void relax(std::vector<double>& cells, double halo_in) {
  for (double& c : cells) {
    c = 0.5 * (c + halo_in);
    halo_in = c;
  }
}

}  // namespace

int main() {
  sim::Cluster::Options opts;
  opts.topo = {2, 4};  // 8 ranks on 2 nodes
  sim::Cluster cluster{opts};

  sim::ChaosPolicy policy;
  policy.seed = 0xBAD5EED;
  policy.kill_every_steps = 5;
  policy.max_kills = 3;
  policy.min_survivors = 2;
  sim::ChaosMonkey monkey{cluster, policy};

  cluster.run([&](sim::Process& proc) {
    Session session = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        session.group_from_pset("mpi://world"), "stencil", Info::null(),
        Errhandler::errors_return());

    std::vector<double> cells(kCells, 1.0 + proc.rank());
    std::uint64_t step = 1;

    ckpt::Checkpointer ck("stencil");
    ck.register_dataset("cells", cells.data(),
                        cells.size() * sizeof(double));
    ck.register_dataset("step", &step, sizeof(step));
    ck.save(comm);  // epoch 1: the pristine initial state

    while (step <= kSteps) {
      if (!monkey.step(proc, static_cast<int>(step))) {
        std::printf("rank %d: killed by chaos at step %llu\n", proc.rank(),
                    static_cast<unsigned long long>(step));
        return;  // a crashed process does not finalize
      }
      bool ok = true;
      try {
        const int n = comm.size();
        const int me = comm.rank();
        double halo_in = cells.back();
        if (n > 1) {
          const double halo_out = cells.back();
          const Status st =
              comm.sendrecv(&halo_out, 1, Datatype::float64(), (me + 1) % n,
                            0, &halo_in, 1, Datatype::float64(),
                            (me + n - 1) % n, 0);
          if (st.error != ErrClass::success) {
            throw Error(st.error, "ring exchange poisoned");
          }
        }
        relax(cells, halo_in);
        double local = cells.front();
        double residual = 0;
        comm.allreduce(&local, &residual, 1, Datatype::float64(), Op::sum());
        ++step;
        if ((step - 1) % kCkptEvery == 0) {
          ck.save(comm);  // coordinated epoch commit (agree-backed)
        }
      } catch (const Error&) {
        ok = false;  // a peer died mid-step (or revoked the communicator)
      }
      if (ok) {
        continue;
      }

      // --- ULFM recovery ---------------------------------------------------
      const auto dead = comm.ack_failed();
      comm.revoke();  // pull every survivor out of the broken communicator
      Communicator smaller = comm.shrink();
      comm.free();
      comm = smaller;
      // No agree-on-a-step, no recompute: the checkpoint *is* the common
      // resume point. restore() picks the newest epoch committed everywhere
      // (so survivors that noticed the failure a step apart still land on
      // the same state) and hands back the dead ranks' shards.
      const ckpt::RestoreResult res = ck.restore(comm);
      // Redistribution under user control: fold each orphaned "cells" shard
      // into this rank's boundary so no checkpointed work is dropped.
      for (const ckpt::Shard& shard : res.adopted) {
        if (shard.dataset == "cells" && !shard.bytes.empty()) {
          double first = 0;
          std::memcpy(&first, shard.bytes.data(), sizeof(first));
          cells.back() = 0.5 * (cells.back() + first);
        }
      }
      if (comm.rank() == 0) {
        std::printf("recovered: %zu failure(s) acked, %d survivors, "
                    "restored epoch %llu -> resuming at step %llu "
                    "(%zu orphan shard(s) adopted)\n",
                    dead.size(), comm.size(),
                    static_cast<unsigned long long>(res.epoch),
                    static_cast<unsigned long long>(step),
                    res.adopted.size());
      }
    }

    if (comm.rank() == 0) {
      std::printf("done: %d survivors finished %d steps (%llu chaos kills, "
                  "last epoch %llu)\n",
                  comm.size(), kSteps,
                  static_cast<unsigned long long>(monkey.kills()),
                  static_cast<unsigned long long>(ck.last_committed()));
    }
    comm.free();
    session.finalize();
  });
  return 0;
}
