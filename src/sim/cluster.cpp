#include "sessmpi/sim/cluster.hpp"

#include <thread>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/log.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi::sim {

namespace {
thread_local Process* tls_current = nullptr;
}

Process::Process(Cluster& cluster, Rank rank)
    : cluster_(cluster),
      rank_(rank),
      node_(cluster.topology().node_of(rank)),
      local_rank_(cluster.topology().local_rank_of(rank)),
      endpoint_(cluster.fabric().endpoint(rank)) {}

void Process::fail() {
  // Announce before the fabric flag flips: anyone who sees is_failed() can
  // already re-query psets and failure lists that reflect the death.
  cluster_.dvm().pmix().notify_proc_failed(rank_);
  cluster_.fabric().mark_failed(rank_);
}

bool Process::failed() const {
  return cluster_.fabric().is_failed(rank_);
}

Cluster::Cluster(Options opts)
    : dvm_(prte::JobSpec{opts.topo, opts.cost, std::move(opts.extra_psets)}),
      fabric_(opts.topo, opts.cost, opts.reliability) {
  procs_.reserve(static_cast<std::size_t>(opts.topo.size()));
  for (Rank r = 0; r < opts.topo.size(); ++r) {
    procs_.push_back(std::make_unique<Process>(*this, r));
  }
  // Clock skew is a property of the cluster being simulated: start from
  // aligned clocks, then inject the configured per-rank offsets.
  obs::Tracer::reset_track_skews();
  for (std::size_t r = 0;
       r < opts.clock_skew_ns.size() &&
       r < static_cast<std::size_t>(opts.topo.size());
       ++r) {
    obs::Tracer::set_track_skew_ns(static_cast<std::int32_t>(r),
                                   opts.clock_skew_ns[r]);
  }
  // Retry exhaustion in the fabric is a failure detection: surface it
  // through the same PMIx proc_failed announcement as any other death so
  // fault-aware layers (Communicator::get_failed, src/ft) hear about it.
  fabric_.set_unreachable_callback(
      [this](Rank r) { dvm_.pmix().notify_proc_failed(r); });
  // ECN: charge every sequenced inter-node packet against a modeled link
  // and mark CE once the backlog crosses kEcnThresholdNs (DESIGN.md §17).
  // Without inter-node links, or when the cost model serializes packets in
  // zero time, nothing can ever be marked: leave the slot empty so the
  // per-packet path skips it.
  if (opts.topo.num_nodes > 1 && links_can_queue(opts.cost)) {
    link_load_ = std::make_unique<LinkLoad>();
    fabric_.set_ce_marker(make_ce_marker(*link_load_, opts.topo, opts.cost));
  }
}

Cluster::~Cluster() = default;

Process& Cluster::process(Rank r) {
  if (!topology().valid_rank(r)) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid rank");
  }
  return *procs_[static_cast<std::size_t>(r)];
}

void Cluster::fail_rank(Rank r) { process(r).fail(); }

void Cluster::fail_node(int node) {
  if (node < 0 || node >= topology().num_nodes) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid node");
  }
  // Same order as Process::fail(): announce, then flip the fabric flags.
  dvm_.notify_node_failed(node);
  for (Rank r = 0; r < size(); ++r) {
    if (topology().node_of(r) == node) {
      fabric_.mark_failed(r);
    }
  }
}

void Cluster::run(const std::function<void(Process&)>& rank_main) {
  std::vector<Rank> all(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  run_on(all, rank_main);
}

void Cluster::run_on(const std::vector<Rank>& ranks,
                     const std::function<void(Process&)>& rank_main) {
  struct Outcome {
    std::exception_ptr error;
  };
  std::vector<Outcome> outcomes(ranks.size());

  // The rank body is identical in both scheduling modes; only the carrier
  // differs (dedicated OS thread vs pinned fiber).
  const auto body_of = [this, &outcomes, &rank_main](std::size_t i, Rank r) {
    return [this, r, i, &outcomes, &rank_main] {
      Process& proc = *procs_[static_cast<std::size_t>(r)];
      try {
        dvm_.attach_process(r);
        rank_main(proc);
      } catch (...) {
        outcomes[i].error = std::current_exception();
        // Mark the rank dead so peers blocked in runtime collectives abort
        // (rte_proc_failed) instead of deadlocking the whole run, and flip
        // the cluster-wide abort flag so message-progress loops bail too.
        aborted_.store(true, std::memory_order_release);
        proc.fail();
      }
    };
  };

  if (scheduler_mode() == SchedulerMode::fibers) {
    std::vector<FiberTask> tasks(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const Rank r = ranks[i];
      Process* proc = &process(r);  // validate before scheduling
      tasks[i].body = body_of(i, r);
      // Rank TLS travels with the fiber: every resume rebinds the worker
      // thread to this rank (Cluster::current(), merged-trace track);
      // every suspend unbinds so scheduler code never impersonates a rank.
      tasks[i].on_resume = [proc, r] {
        tls_current = proc;
        obs::Tracer::set_thread_track(r);
      };
      tasks[i].on_suspend = [] {
        obs::Tracer::set_thread_track(-1);
        tls_current = nullptr;
      };
    }
    FiberPool::run(std::move(tasks));
  } else {
    std::vector<std::thread> threads;
    threads.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const Rank r = ranks[i];
      (void)process(r);  // validate before spawning
      threads.emplace_back([this, r, body = body_of(i, r)] {
        tls_current = procs_[static_cast<std::size_t>(r)].get();
        // Rank threads own their merged-trace track: every probe this
        // thread fires lands on rank r's timeline.
        obs::Tracer::set_thread_track(r);
        body();
        obs::Tracer::set_thread_track(-1);
        tls_current = nullptr;
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  for (auto& o : outcomes) {
    if (o.error) {
      std::rethrow_exception(o.error);
    }
  }
}

Process& Cluster::current() {
  if (tls_current == nullptr) {
    throw base::Error(base::ErrClass::intern,
                      "not called from a simulated rank thread");
  }
  return *tls_current;
}

Process* Cluster::current_ptr() noexcept { return tls_current; }

ProcessAdopter::ProcessAdopter(Process& proc) : previous_(tls_current) {
  tls_current = &proc;
  previous_track_ = obs::Tracer::thread_track();
  obs::Tracer::set_thread_track(proc.rank());
}

ProcessAdopter::~ProcessAdopter() {
  obs::Tracer::set_thread_track(previous_track_);
  tls_current = previous_;
}

}  // namespace sessmpi::sim
