// Roll-forward after failure (paper §II-C(a)): MPI Sessions lets an
// application re-initialize MPI after a failure "and use whatever resources
// are available at the point of re-initialization", with data
// redistribution under user control.
//
// Six ranks run an iterative computation, checkpointing to the shared
// filesystem each step. Rank 4 dies mid-run. Survivors observe the failure
// (their runtime fence aborts), finalize MPI completely, re-initialize over
// the reduced pset, re-read the checkpoint — including the dead rank's
// shard — redistribute it, and finish the computation with 5 ranks.

#include <cstdio>
#include <numeric>
#include <vector>

#include "sessmpi/mpi.hpp"
#include "sessmpi/sim/cluster.hpp"

using namespace sessmpi;

namespace {

constexpr int kRanks = 6;
constexpr int kShard = 8;         // doubles per rank
constexpr int kTotalSteps = 6;
constexpr const char* kCkpt = "sim:/rollforward.ckpt";

/// One compute step on a shard plus a global coupling term.
void step(const Communicator& comm, std::vector<double>& shard) {
  double local = std::accumulate(shard.begin(), shard.end(), 0.0);
  double global = 0;
  comm.allreduce(&local, &global, 1, Datatype::float64(), Op::sum());
  for (double& v : shard) {
    v = v * 1.01 + global * 1e-6;
  }
}

void checkpoint(const File& f, int owner_rank, int completed_steps,
                const std::vector<double>& shard) {
  const std::int64_t steps = completed_steps;
  f.write_at(0, &steps, 1, Datatype::int64());
  f.write_at(8 + static_cast<std::size_t>(owner_rank) * kShard * 8,
             shard.data(), kShard, Datatype::float64());
}

}  // namespace

int main() {
  sim::Cluster::Options opts;
  opts.topo = {1, kRanks};
  opts.extra_psets.emplace_back("app://survivors",
                                std::vector<pmix::ProcId>{0, 1, 2, 3, 5});
  sim::Cluster cluster{opts};

  cluster.run([](sim::Process& proc) {
    // ---- Phase 1: all six ranks compute and checkpoint ------------------
    Session s1 = Session::init(Info::null(), Errhandler::errors_return());
    Communicator comm = Communicator::create_from_group(
        s1.group_from_pset("mpi://world"), "phase1", Info::null(),
        Errhandler::errors_return());
    File ckpt = File::open(comm, kCkpt);

    std::vector<double> shard(kShard, 1.0 + proc.rank());
    int done = 0;
    for (; done < 3; ++done) {
      step(comm, shard);
      checkpoint(ckpt, proc.rank(), done + 1, shard);
    }
    if (proc.rank() == 4) {
      std::printf("rank 4: failing after step %d\n", done);
      proc.fail();
      return;
    }

    // Survivors detect the failure: the next runtime fence aborts.
    std::vector<pmix::ProcId> all(kRanks);
    for (int i = 0; i < kRanks; ++i) all[static_cast<std::size_t>(i)] = i;
    auto st = proc.pmix_client->fence(all,
                                      base::Nanos(std::chrono::seconds(2)));
    if (proc.rank() == 0) {
      std::printf("survivors: fence after failure -> %s; rolling forward\n",
                  std::string(err_class_name(st.cls)).c_str());
    }
    // The file and communicator span the dead rank, so their collective
    // teardown (File::close barriers) is impossible — exactly why §II-C
    // wants re-initialization: finalize locally and abandon the damaged
    // objects; the subsystem teardown reclaims their local state.
    comm.free();  // local resource release
    s1.finalize();  // full MPI teardown on each survivor

    // ---- Phase 2: re-init over the reduced pset, restore, continue ------
    Session s2 = Session::init(Info::null(), Errhandler::errors_return());
    Group survivors = s2.group_from_pset("app://survivors");
    Communicator comm2 = Communicator::create_from_group(
        survivors, "phase2", Info::null(), Errhandler::errors_return());

    File::Mode ro;
    ro.create = false;
    File restore = File::open(comm2, kCkpt, ro);
    std::int64_t steps_done = 0;
    restore.read_at(0, &steps_done, 1, Datatype::int64());
    restore.read_at(8 + static_cast<std::size_t>(proc.rank()) * kShard * 8,
                    shard.data(), kShard, Datatype::float64());

    // Redistribution under user control: the lowest survivor adopts the
    // dead rank's shard and folds it into its own.
    if (comm2.rank() == 0) {
      std::vector<double> orphan(kShard, 0.0);
      restore.read_at(8 + 4ull * kShard * 8, orphan.data(), kShard,
                      Datatype::float64());
      for (int i = 0; i < kShard; ++i) {
        shard[static_cast<std::size_t>(i)] +=
            orphan[static_cast<std::size_t>(i)];
      }
    }

    for (int k = static_cast<int>(steps_done); k < kTotalSteps; ++k) {
      step(comm2, shard);
    }
    double local = std::accumulate(shard.begin(), shard.end(), 0.0);
    double total = 0;
    comm2.allreduce(&local, &total, 1, Datatype::float64(), Op::sum());
    if (comm2.rank() == 0) {
      std::printf("completed %d total steps with %d survivors; final mass "
                  "%.4f (all 6 ranks' data preserved)\n",
                  kTotalSteps, comm2.size(), total);
    }
    restore.close();
    comm2.free();
    s2.finalize();
  });
  std::printf("checkpoint_restart finished.\n");
  return 0;
}
