// Fault isolation across sessions (paper §II-C): a server group keeps
// serving after a client process dies.
//
// Ranks 0-1 are "clients", ranks 2-5 are "servers". Each side communicates
// within its own session-derived communicator; the server side registers a
// PMIx event handler with termination notification so it *observes* the
// client failure without being torn down by it — in the classic World
// model, COMM_WORLD couples everyone into one failure domain.

#include <atomic>
#include <cstdio>

#include "sessmpi/mpi.hpp"
#include "sessmpi/sim/cluster.hpp"

using namespace sessmpi;

int main() {
  sim::Cluster::Options opts;
  opts.topo = {1, 6};
  opts.extra_psets.emplace_back("app://clients",
                                std::vector<pmix::ProcId>{0, 1});
  opts.extra_psets.emplace_back("app://servers",
                                std::vector<pmix::ProcId>{2, 3, 4, 5});
  sim::Cluster cluster{opts};

  std::atomic<int> failures_observed{0};
  std::atomic<int> server_rounds{0};

  cluster.run([&](sim::Process& proc) {
    const bool is_server = proc.rank() >= 2;
    Session session = Session::init(Info::null(), Errhandler::errors_return());

    // Everyone joins one *watched* PMIx group covering the whole app, with
    // termination notification (paper §III-A directives): deaths raise
    // events to the survivors, but — unlike COMM_WORLD coupling — they do
    // not invalidate anyone's communication state.
    pmix::PmixClient& pmix = *proc.pmix_client;
    pmix::GroupDirectives dirs;
    dirs.notify_on_termination = true;
    auto watched =
        pmix.group_construct("grp://app", {0, 1, 2, 3, 4, 5}, dirs);
    if (!watched.ok()) {
      std::printf("rank %d: group construct failed\n", proc.rank());
      return;
    }

    Communicator comm = Communicator::create_from_group(
        session.group_from_pset(is_server ? "app://servers" : "app://clients"),
        is_server ? "servers" : "clients", Info::null(),
        Errhandler::errors_return());

    if (proc.rank() == 1) {
      // Client 1 crashes mid-run.
      std::printf("rank 1 (client): simulating process failure\n");
      proc.fail();
      return;
    }

    if (proc.rank() == 0) {
      // Client 0: a runtime fence with the dead peer aborts instead of
      // hanging (timeout + failure oracle), and the failure is reported.
      auto st = pmix.fence({0, 1}, base::Nanos(std::chrono::seconds(2)));
      std::printf("rank 0 (client): fence with dead peer -> %s\n",
                  std::string(err_class_name(st.cls)).c_str());
      ++failures_observed;
      return;
    }

    // Servers: poll events once the failure propagates, then keep serving.
    pmix.register_event_handler([&](const pmix::Event& e) {
      if (e.kind == pmix::EventKind::proc_failed) {
        ++failures_observed;
      }
    });
    for (int round = 0; round < 5; ++round) {
      std::int64_t one = 1, live = 0;
      comm.allreduce(&one, &live, 1, Datatype::int64(), Op::sum());
      if (live == 4) {
        ++server_rounds;
      }
      pmix.poll_events();
    }
    comm.free();
    session.finalize();
  });

  std::printf("servers completed %d/20 healthy rounds after the client "
              "failure; failure observed by %d processes\n",
              server_rounds.load(), failures_observed.load());
  std::printf("fault_isolation finished: the client failure never reached "
              "the server session.\n");
  return 0;
}
