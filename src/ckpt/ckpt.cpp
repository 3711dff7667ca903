// Coordinated checkpoint/restart (see include/sessmpi/ckpt/ckpt.hpp).
//
// The redundancy exchanges run on dedicated checkpoint tags (detail::
// ckpt_tag, between the internal-collective and FT tag ranges). Those tags
// are deliberately *inside* the revoke poison set: a revocation mid-save
// completes the pending receives with comm_revoked, the rank votes abort,
// and the agree()-backed commit — which runs on FT tags and therefore works
// on the revoked communicator — aborts the epoch uniformly.
//
// The erasure exchange is set-internal and symmetric (every member sends
// to and receives from the same peer set), which is what makes the error
// paths deadlock-free: a set member dying mid-save fails *every* member's
// receive from it, so the whole set skips the chunk phase together, and a
// death after the size phase fails the chunk receives directly.

#include "sessmpi/ckpt/ckpt.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <utility>

#include "detail/state.hpp"
#include "sessmpi/base/backoff.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/ckpt/planner.hpp"
#include "sessmpi/ft/ft.hpp"
#include "sessmpi/obs/hist.hpp"
#include "sessmpi/obs/postmortem.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/op.hpp"
#include "sessmpi/prte/simfs.hpp"

namespace sessmpi::ckpt {

namespace {

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t take_u64(const std::vector<std::byte>& in, std::size_t& pos) {
  if (pos + 8 > in.size()) {
    throw Error(ErrClass::truncate, "ckpt: snapshot blob truncated");
  }
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[pos + i]))
         << (8 * i);
  }
  pos += 8;
  return v;
}

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Async-span correlation id for one rank's drain of one epoch (epochs
/// collide across ranks, so fold the track in).
std::uint64_t drain_span_id(std::int32_t track, std::uint64_t epoch) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(track + 1))
          << 32) |
         (epoch & 0xffffffffull);
}

}  // namespace

std::vector<std::byte> encode_snapshot(
    const std::map<std::string, std::vector<std::byte>>& datasets) {
  std::vector<std::byte> out;
  put_u64(out, datasets.size());
  for (const auto& [name, bytes] : datasets) {
    put_u64(out, name.size());
    for (char c : name) {
      out.push_back(static_cast<std::byte>(c));
    }
    put_u64(out, bytes.size());
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

std::map<std::string, std::vector<std::byte>> decode_snapshot(
    const std::vector<std::byte>& blob) {
  std::map<std::string, std::vector<std::byte>> out;
  std::size_t pos = 0;
  const std::uint64_t count = take_u64(blob, pos);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = take_u64(blob, pos);
    if (pos + name_len > blob.size()) {
      throw Error(ErrClass::truncate, "ckpt: snapshot blob truncated");
    }
    std::string name(name_len, '\0');
    for (std::uint64_t j = 0; j < name_len; ++j) {
      name[j] = static_cast<char>(std::to_integer<std::uint8_t>(blob[pos + j]));
    }
    pos += name_len;
    const std::uint64_t data_len = take_u64(blob, pos);
    if (pos + data_len > blob.size()) {
      throw Error(ErrClass::truncate, "ckpt: snapshot blob truncated");
    }
    out.emplace(std::move(name),
                std::vector<std::byte>(blob.begin() + static_cast<long>(pos),
                                       blob.begin() +
                                           static_cast<long>(pos + data_len)));
    pos += data_len;
  }
  return out;
}

Checkpointer::Checkpointer(std::string name, Config cfg)
    : name_(std::move(name)), cfg_(std::move(cfg)) {
  if (cfg_.keep_epochs == 0) {
    cfg_.keep_epochs = 1;
  }
  if (cfg_.set_data < 1 || cfg_.set_parity < 0 ||
      cfg_.set_data + cfg_.set_parity > 30) {
    throw Error(ErrClass::arg,
                "ckpt: redundancy set needs 1 <= k, 0 <= m, k + m <= 30");
  }
  if (cfg_.spill_chunk_bytes == 0) {
    cfg_.spill_chunk_bytes = 1;
  }
}

Checkpointer::~Checkpointer() {
  {
    std::lock_guard lk(dmu_);
    drain_stop_ = true;
  }
  dword_.notify();
  if (drainer_.joinable()) {
    drainer_.join();
  }
}

void Checkpointer::register_dataset(const std::string& dataset, void* data,
                                    std::size_t bytes) {
  if (data == nullptr && bytes != 0) {
    throw Error(ErrClass::buffer, "ckpt: null dataset pointer");
  }
  datasets_[dataset] = Dataset{data, bytes};
}

std::string Checkpointer::fs_path(std::uint64_t epoch, base::Rank owner) const {
  return cfg_.fs_prefix + name_ + "/e" + std::to_string(epoch) + "/r" +
         std::to_string(owner);
}

bool Checkpointer::should_save(std::int64_t now_ns) {
  const std::int64_t interval = planner().effective_interval_ns();
  if (interval <= 0) {
    next_due_ns_ = -1;
    return true;
  }
  if (next_due_ns_ < 0 || now_ns >= next_due_ns_) {
    next_due_ns_ = now_ns + interval;
    return true;
  }
  return false;
}

std::uint64_t Checkpointer::save(const Communicator& comm) {
  const auto& s = detail_unwrap(comm);
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "null or freed communicator");
  }
  detail::ProcState& ps = *s->ps;
  const int me = s->myrank;
  const base::Rank my_global = s->global_of(me);
  const std::int64_t t0 = mono_ns();
  OBS_SPAN("ckpt.save", "ckpt");
  // One distributed trace per save: redundancy-set and commit-vote
  // messages all inherit this id (agree() nests its own scope for the vote
  // itself, which composes — see ScopedFlowContext).
  std::uint64_t save_flow = 0;
  if (obs::Tracer::instance().enabled()) {
    save_flow = obs::Tracer::next_span_id();
    OBS_FLOW_START("ckpt.save", "ckpt", save_flow, 0);
  }
  obs::ScopedFlowContext save_flow_scope(save_flow);

  // Stage 1: local snapshot. Nothing commits until the vote.
  Epoch staging;
  staging.members = comm.group().members();
  staging.sets = set_layouts(staging.members, ps.proc.cluster().topology(),
                             cfg_.set_data, cfg_.set_parity);
  std::size_t own_bytes = 0;
  for (const auto& [dsname, ds] : datasets_) {
    const auto* p = static_cast<const std::byte*>(ds.data);
    staging.own.emplace(dsname, std::vector<std::byte>(p, p + ds.bytes));
    own_bytes += ds.bytes;
  }

  // A revocation seen at any point before the vote invalidates this save.
  // The revoked flag is sticky, so reading it here and again before the
  // vote misses none.
  bool ok = !comm.is_revoked();

  std::uint32_t seq;
  {
    std::lock_guard lock(ps.mu);
    seq = s->ckpt_seq++;
  }

  // Stage 2: redundancy — the erasure-set chunk exchange + parity encode.
  const std::int64_t enc0 = mono_ns();
  std::size_t redundancy_bytes = 0;
  {
    OBS_SPAN("ckpt.encode", "ckpt");
    for (std::size_t si = 0; si < staging.sets.size(); ++si) {
      const int idx = staging.sets[si].member_of(me);
      if (idx >= 0) {
        staging.my_set = static_cast<int>(si);
        staging.my_idx = idx;
      }
    }
    const SetLayout& lay =
        staging.sets[static_cast<std::size_t>(staging.my_set)];
    const int g = lay.size();
    const int kk = lay.data;
    const int mm = lay.parity;
    const int idx = staging.my_idx;
    if (ok && mm > 0) {
      std::vector<std::byte> mine = encode_snapshot(staging.own);
      staging.blob_sizes.assign(static_cast<std::size_t>(g), 0);
      staging.blob_sizes[static_cast<std::size_t>(idx)] = mine.size();
      const std::uint64_t my_size = mine.size();
      // The chunk buffers outlive `cleanup`, which scrubs their receives.
      struct ChunkRecv {
        int stripe = 0;
        int j = 0;
        std::vector<std::byte> buf;
        detail::RequestPtr req;
      };
      std::vector<std::unique_ptr<ChunkRecv>> incoming;
      detail::PostedScrub cleanup(ps, *s);
      // Set-internal size allgather (sub-tag 0): every member learns
      // every blob size, so all compute the same chunk length.
      std::vector<detail::RequestPtr> size_recvs;
      for (int x = 0; x < g; ++x) {
        if (x == idx) {
          continue;
        }
        size_recvs.push_back(cleanup.add(ps.irecv_impl(
            s, &staging.blob_sizes[static_cast<std::size_t>(x)], 1,
            datatype_of<std::uint64_t>(), lay.members[x],
            detail::ckpt_tag(seq, 0))));
      }
      for (int x = 0; x < g; ++x) {
        if (x != idx) {
          ps.isend_impl(s, &my_size, 1, datatype_of<std::uint64_t>(),
                        lay.members[x], detail::ckpt_tag(seq, 0),
                        /*sync=*/false);
        }
      }
      ps.progress_until([&] {
        return std::all_of(size_recvs.begin(), size_recvs.end(),
                           [](const auto& r) { return r->done(); });
      });
      for (const auto& r : size_recvs) {
        if (r->status.error != ErrClass::success) {
          ok = false;
        }
      }
      if (ok) {
        const std::uint64_t lmax =
            *std::max_element(staging.blob_sizes.begin(),
                              staging.blob_sizes.end());
        const std::uint64_t clen =
            (lmax + static_cast<std::uint64_t>(kk) - 1) /
            static_cast<std::uint64_t>(kk);
        staging.chunk_len = clen;
        mine.resize(static_cast<std::size_t>(kk) * clen);  // zero-pad

        // Receive the data chunks of every stripe I hold parity for
        // (sub-tag 2 + stripe*g + chunk), send my own chunks to their
        // stripes' parity holders.
        for (int st = 0; st < g; ++st) {
          if (lay.parity_index(st, idx) < 0) {
            continue;
          }
          for (int j = 0; j < kk; ++j) {
            auto cr = std::make_unique<ChunkRecv>();
            cr->stripe = st;
            cr->j = j;
            cr->buf.resize(clen);
            cr->req = cleanup.add(ps.irecv_impl(
                s, cr->buf.data(), static_cast<int>(clen),
                datatype_of<std::byte>(),
                lay.members[lay.data_member(st, j)],
                detail::ckpt_tag(seq, 2 + st * g + j)));
            incoming.push_back(std::move(cr));
          }
        }
        for (int j = 0; j < kk; ++j) {
          const int st = lay.stripe_of_chunk(idx, j);
          for (int i = 0; i < mm; ++i) {
            ps.isend_impl(
                s, mine.data() + static_cast<std::size_t>(j) * clen,
                static_cast<int>(clen), datatype_of<std::byte>(),
                lay.members[lay.parity_member(st, i)],
                detail::ckpt_tag(seq, 2 + st * g + j), /*sync=*/false);
          }
        }
        ps.progress_until([&] {
          return std::all_of(incoming.begin(), incoming.end(),
                             [](const auto& c) { return c->req->done(); });
        });
        for (const auto& c : incoming) {
          if (c->req->status.error != ErrClass::success) {
            ok = false;
          }
        }
        if (ok) {
          const SetCodec codec(kk, mm);
          std::vector<const std::byte*> ptrs(static_cast<std::size_t>(kk));
          for (int st = 0; st < g; ++st) {
            const int pi = lay.parity_index(st, idx);
            if (pi < 0) {
              continue;
            }
            for (const auto& c : incoming) {
              if (c->stripe == st) {
                ptrs[static_cast<std::size_t>(c->j)] = c->buf.data();
              }
            }
            std::vector<std::byte> out(clen);
            codec.encode(pi, ptrs.data(), clen, out.data());
            staging.parity.emplace(st, std::move(out));
            redundancy_bytes += clen;
          }
        }
      }
    }
  }
  obs::histogram("ckpt.encode_ns")
      .record(static_cast<std::uint64_t>(mono_ns() - enc0));

  if (comm.is_revoked()) {
    ok = false;
  }

  // Fence the previous epoch's async drain *before* the vote: a committed
  // epoch N certifies that every rank's epoch N-1 spill reached a terminal
  // state (durable, or failed with a sticky cause — the in-memory levels
  // still protect a failed spill, so it does not abort this save).
  drain_fence();

  // Stage 3: uniform commit/abort vote. agree() runs on FT tags, so the
  // vote reaches every survivor even on a revoked communicator; bit 0 of
  // the AND survives iff every rank voted commit.
  const std::uint64_t verdict = [&] {
    OBS_SPAN("ckpt.commit_vote", "ckpt");
    return comm.agree(ok ? ~0ull : ~1ull);
  }();
  if ((verdict & 1ull) == 0) {
    base::counters().add("ckpt.aborted_saves");
    if (comm.is_revoked()) {
      throw Error(ErrClass::comm_revoked,
                  "ckpt: save invalidated by communicator revocation");
    }
    throw Error(ErrClass::rte_proc_failed,
                "ckpt: save aborted (a member voted abort)");
  }

  // Stage 4: commit locally, publish the epoch through PMIx, spill.
  const std::uint64_t epoch = last_committed_ + 1;
  Epoch& committed = epochs_[epoch];
  committed = std::move(staging);
  last_committed_ = epoch;
  while (epochs_.size() > cfg_.keep_epochs) {
    if (cfg_.spill_to_fs) {
      remove_spill(ps.proc.cluster().fs(), epochs_.begin()->first, my_global);
    }
    epochs_.erase(epochs_.begin());
  }

  ps.pmix().put("ckpt." + name_ + ".epoch", epoch);
  ps.pmix().commit();

  if (cfg_.spill_to_fs) {
    std::vector<std::byte> blob = encode_snapshot(committed.own);
    spill_async(ps.proc.cluster().fs(), epoch, std::move(blob), my_global);
    base::counters().add("ckpt.spills");
  }

  base::counters().add("ckpt.saves");
  base::counters().add("ckpt.save_bytes", own_bytes);
  base::counters().add("ckpt.redundancy_bytes", redundancy_bytes);
  planner().note_save_cost(mono_ns() - t0);
  return epoch;
}

// --- filesystem spill: async drain pipeline -------------------------------

void Checkpointer::spill_async(prte::SimFs& fs, std::uint64_t epoch,
                               std::vector<std::byte> blob,
                               base::Rank my_global) {
  auto job = std::make_shared<DrainJob>();
  job->epoch = epoch;
  job->path = fs_path(epoch, my_global);
  job->blob = std::move(blob);
  job->track = obs::Tracer::thread_track();
  // Truncate the target now: a death mid-drain leaves a visibly partial
  // file (and no ".ok"), never a stale previous generation.
  fs.set_size(job->path, 0);
  fs.remove(job->path + ".ok");
  OBS_ASYNC_BEGIN2(job->track, "ckpt.drain", "ckpt",
                   drain_span_id(job->track, epoch), epoch, job->blob.size());
  {
    std::lock_guard lk(dmu_);
    drain_fs_ = &fs;
    dqueue_.push_back(job);
    dlive_.push_back(job);
    if (!drainer_.joinable()) {
      drainer_ = std::thread([this] { drain_loop(); });
    }
  }
  dword_.notify();
}

Checkpointer::DrainJob::State Checkpointer::drain_one(const DrainJob& job,
                                                      std::string& cause) {
  prte::SimFs* fs;
  {
    std::lock_guard lk(dmu_);
    fs = drain_fs_;
  }
  // Short backoff curve: transient SimFs faults clear on the next draw, so
  // the pipeline recovers in microseconds instead of the fabric-scale
  // defaults.
  const base::ExponentialBackoff bo{.base_ns = 20'000,
                                    .cap_ns = 5'000'000,
                                    .factor = 2};
  const std::int64_t delay_per_byte = fs->write_delay_ns_per_byte();
  // 0 = written, 1 = cancelled by stop, 2 = retries exhausted.
  const auto write_retry = [&](const std::string& path, std::size_t woff,
                               const void* p, std::size_t wn) -> int {
    for (int retry = 0;; ++retry) {
      {
        std::lock_guard lk(dmu_);
        if (drain_stop_) {
          return 1;
        }
      }
      if (fs->try_write(path, woff, p, wn)) {
        if (delay_per_byte > 0) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(
              delay_per_byte * static_cast<std::int64_t>(wn)));
        }
        return 0;
      }
      base::counters().add("ckpt.spill_retries");
      if (retry >= cfg_.spill_max_retries) {
        return 2;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(bo.delay_ns(retry)));
    }
  };

  for (std::size_t woff = 0; woff < job.blob.size();
       woff += cfg_.spill_chunk_bytes) {
    const std::size_t wn =
        std::min(cfg_.spill_chunk_bytes, job.blob.size() - woff);
    const int r = write_retry(job.path, woff, job.blob.data() + woff, wn);
    if (r == 1) {
      return DrainJob::State::cancelled;
    }
    if (r == 2) {
      cause = "ckpt: drain of " + job.path + " failed at offset " +
              std::to_string(woff) + " after " +
              std::to_string(cfg_.spill_max_retries) + " retries";
      base::counters().add("ckpt.drain_failures");
      return DrainJob::State::failed;
    }
  }
  const char okb = 1;
  const int r = write_retry(job.path + ".ok", 0, &okb, 1);
  if (r == 1) {
    return DrainJob::State::cancelled;
  }
  if (r == 2) {
    cause = "ckpt: drain of " + job.path +
            " failed writing the durability marker";
    base::counters().add("ckpt.drain_failures");
    return DrainJob::State::failed;
  }
  return DrainJob::State::durable;
}

void Checkpointer::drain_loop() {
  for (;;) {
    base::wait_until(dword_, [this] {
      std::lock_guard lk(dmu_);
      return drain_stop_ || !dqueue_.empty();
    });
    std::unique_lock lk(dmu_);
    if (dqueue_.empty()) {
      return;  // stop requested and nothing left to drain
    }
    auto job = dqueue_.front();
    dqueue_.pop_front();
    if (drain_stop_) {
      job->state = DrainJob::State::cancelled;
      dlive_.erase(std::find(dlive_.begin(), dlive_.end(), job));
      lk.unlock();
      dword_.notify();
      continue;
    }
    job->state = DrainJob::State::draining;
    lk.unlock();
    dword_.notify();

    const std::int64_t j0 = mono_ns();
    std::string cause;
    const DrainJob::State fin = drain_one(*job, cause);
    const std::uint64_t dur = static_cast<std::uint64_t>(mono_ns() - j0);
    obs::histogram("ckpt.drain_ns").record(dur);
    OBS_ASYNC_END(job->track, "ckpt.drain", "ckpt",
                  drain_span_id(job->track, job->epoch));

    lk.lock();
    job->state = fin;
    if (fin == DrainJob::State::failed && drain_first_cause_.empty()) {
      drain_first_cause_ = cause;  // sticky first cause
    }
    drain_busy_ns_ += dur;
    dlive_.erase(std::find(dlive_.begin(), dlive_.end(), job));
    lk.unlock();
    dword_.notify();
  }
}

bool Checkpointer::drain_fence() {
  const std::int64_t t0 = mono_ns();
  // A fence with nothing in flight is one lock-and-check: wait_until tests
  // the predicate before it registers on the word.
  base::wait_until(dword_, [this] {
    std::lock_guard lk(dmu_);
    return dlive_.empty();
  });
  std::lock_guard lk(dmu_);
  drain_fence_wait_ns_ += static_cast<std::uint64_t>(mono_ns() - t0);
  return drain_first_cause_.empty();
}

std::string Checkpointer::drain_error() const {
  std::lock_guard lk(dmu_);
  return drain_first_cause_;
}

std::uint64_t Checkpointer::drain_busy_ns() const {
  std::lock_guard lk(dmu_);
  return drain_busy_ns_;
}

std::uint64_t Checkpointer::drain_fence_wait_ns() const {
  std::lock_guard lk(dmu_);
  return drain_fence_wait_ns_;
}

void Checkpointer::remove_spill(prte::SimFs& fs, std::uint64_t epoch,
                                base::Rank my_global) {
  const std::string path = fs_path(epoch, my_global);
  fs.remove(path + ".ok");  // marker first: never a marked-but-missing blob
  fs.remove(path);
}

// --- restore ---------------------------------------------------------------

RestoreResult Checkpointer::restore(const Communicator& comm) {
  const auto& s = detail_unwrap(comm);
  if (!s || s->freed) {
    throw Error(ErrClass::comm, "null or freed communicator");
  }
  detail::ProcState& ps = *s->ps;
  base::counters().add("ckpt.restores");
  OBS_SPAN("ckpt.restore", "ckpt");

  std::uint32_t rseq;
  {
    std::lock_guard lock(ps.mu);
    rseq = s->ckpt_seq++;
  }

  // Propose the newest epoch *everyone* committed; min() also absorbs a
  // rank that aborted its very first save (last_committed_ == 0 aborts the
  // whole restore below, uniformly).
  const std::uint64_t mine = last_committed_;
  std::uint64_t top = 0;
  comm.allreduce(&mine, &top, 1, datatype_of<std::uint64_t>(), Op::min());
  if (top == 0) {
    throw Error(ErrClass::arg, "ckpt: restore with no committed epoch");
  }

  const Group now = comm.group();
  prte::SimFs& fs = ps.proc.cluster().fs();

  // Local recoverability of one candidate epoch. Deterministic across
  // ranks except for per-rank holdings (pruned epoch), which the allreduce
  // verdict makes uniform. An async spill only counts once its ".ok"
  // durability marker exists — a rank that died mid-drain left a partial
  // file without one.
  const auto candidate_bad = [&](std::uint64_t ep) -> bool {
    const auto it = epochs_.find(ep);
    if (it == epochs_.end()) {
      return true;
    }
    const Epoch& ed = it->second;
    for (const auto& [dsname, ds] : datasets_) {
      const auto oit = ed.own.find(dsname);
      if (oit == ed.own.end() || oit->second.size() != ds.bytes) {
        return true;
      }
    }
    for (const SetLayout& lay : ed.sets) {
      std::vector<base::Rank> dead;
      for (const int r : lay.members) {
        if (!now.contains(ed.members[static_cast<std::size_t>(r)])) {
          dead.push_back(ed.members[static_cast<std::size_t>(r)]);
        }
      }
      // Beyond the set's tolerance every dead member needs a durable
      // filesystem copy.
      if (static_cast<int>(dead.size()) > lay.parity &&
          !std::all_of(dead.begin(), dead.end(), [&](base::Rank owner) {
            return cfg_.spill_to_fs && fs.exists(fs_path(ep, owner) + ".ok");
          })) {
        return true;
      }
    }
    return false;
  };

  // Candidate walk, newest first, bounded by the (uniform) retention
  // window. One allreduce-max verdict per candidate keeps the choice — and
  // any failure — uniform even while a dead rank's drainer raced us.
  std::uint64_t chosen = 0;
  for (std::uint64_t ep = top; ep >= 1 && top - ep < cfg_.keep_epochs; --ep) {
    const std::uint64_t bad = candidate_bad(ep) ? 1 : 0;
    std::uint64_t worst = 0;
    comm.allreduce(&bad, &worst, 1, datatype_of<std::uint64_t>(), Op::max());
    if (worst == 0) {
      chosen = ep;
      break;
    }
    if (ep == 1) {
      break;
    }
  }
  if (chosen == 0) {
    throw Error(ErrClass::rte_not_found,
                "ckpt: no commonly recoverable epoch within the retention "
                "window");
  }

  const Epoch& ed = epochs_.at(chosen);
  RestoreResult res;
  res.epoch = chosen;
  std::uint64_t bad = 0;

  // My own datasets, bitwise.
  std::size_t copied = 0;
  for (const auto& [dsname, ds] : datasets_) {
    const auto own_it = ed.own.find(dsname);
    if (own_it == ed.own.end() || own_it->second.size() != ds.bytes) {
      bad = 1;
      continue;
    }
    if (ds.bytes != 0) {
      std::memcpy(ds.data, own_it->second.data(), ds.bytes);
    }
    copied += ds.bytes;
  }
  base::counters().add("ckpt.restore_bytes", copied);

  // Shards of members that did not make it into this communicator: set
  // parity first, then the durable filesystem spill for anything beyond
  // the in-memory tolerance. Every rank walks every saved set (the orphan
  // bookkeeping must be identical everywhere); the chunk transfers and
  // decodes are set-internal, so only my own set involves me.
  std::vector<base::Rank> fs_orphans;
  for (std::size_t si = 0; si < ed.sets.size(); ++si) {
    const SetLayout& lay = ed.sets[si];
    const int g = lay.size();
    const int kk = lay.data;
    const int mm = lay.parity;
    const auto owner_of = [&](int member_idx) {
      return ed.members[static_cast<std::size_t>(
          lay.members[static_cast<std::size_t>(member_idx)])];
    };
    std::vector<int> deadm;
    std::vector<int> survm;
    for (int x = 0; x < g; ++x) {
      (now.contains(owner_of(x)) ? survm : deadm).push_back(x);
    }
    if (deadm.empty()) {
      continue;
    }
    if (static_cast<int>(deadm.size()) > mm) {
      if (!cfg_.spill_to_fs) {
        bad = 1;  // deterministic: every rank reaches the same conclusion
      } else {
        for (int x : deadm) {
          fs_orphans.push_back(owner_of(x));
        }
      }
      continue;
    }
    if (static_cast<int>(si) != ed.my_set) {
      continue;  // not my set — nothing further to do here
    }
    // Parity-recoverable set. Deterministic plan, computed identically
    // on every rank: dead member d (in index order) is adopted by
    // survivor survm[d mod |survm|]; the adopter reconstructs every
    // stripe the dead member contributed a data chunk to, receiving the
    // surviving chunk of each such stripe from every other survivor.
    std::map<int, std::set<int>> stripes_of;  // adopter -> stripes
    std::map<int, std::vector<int>> adoptees;  // adopter -> dead members
    for (std::size_t d = 0; d < deadm.size(); ++d) {
      const int a = survm[d % survm.size()];
      adoptees[a].push_back(deadm[d]);
      for (int j = 0; j < kk; ++j) {
        stripes_of[a].insert(lay.stripe_of_chunk(deadm[d], j));
      }
    }

    const int my_idx = ed.my_idx;
    const std::uint64_t clen = ed.chunk_len;
    std::vector<std::byte> myblob = encode_snapshot(ed.own);
    myblob.resize(static_cast<std::size_t>(kk) * clen);  // save-time pad
    // My chunk of stripe `st`: my own blob chunk when I am a data
    // contributor there, else the parity chunk I computed at save.
    const auto my_chunk_for = [&](int st) -> const std::byte* {
      const int pos = (my_idx - st + g) % g;
      if (pos < kk) {
        return myblob.data() + static_cast<std::size_t>(pos) * clen;
      }
      return ed.parity.at(st).data();
    };
    const auto new_rank_of = [&](int member_idx) {
      return now.rank_of(owner_of(member_idx));
    };

    struct XferRecv {
      int stripe = 0;
      int from_pos = 0;
      std::vector<std::byte> buf;
      detail::RequestPtr req;
    };
    std::vector<std::unique_ptr<XferRecv>> xin;
    {
      detail::PostedScrub cleanup(ps, *s);
      const auto sit = stripes_of.find(my_idx);
      if (sit != stripes_of.end()) {
        for (int st : sit->second) {
          for (int x : survm) {
            if (x == my_idx) {
              continue;
            }
            auto xr = std::make_unique<XferRecv>();
            xr->stripe = st;
            xr->from_pos = (x - st + g) % g;
            xr->buf.resize(clen);
            xr->req = cleanup.add(ps.irecv_impl(
                s, xr->buf.data(), static_cast<int>(clen),
                datatype_of<std::byte>(), new_rank_of(x),
                detail::ckpt_tag(rseq, 2 + st * g + xr->from_pos)));
            xin.push_back(std::move(xr));
          }
        }
      }
      for (const auto& [a, stset] : stripes_of) {
        if (a == my_idx) {
          continue;
        }
        for (int st : stset) {
          const int pos = (my_idx - st + g) % g;
          ps.isend_impl(s, my_chunk_for(st), static_cast<int>(clen),
                        datatype_of<std::byte>(), new_rank_of(a),
                        detail::ckpt_tag(rseq, 2 + st * g + pos),
                        /*sync=*/false);
        }
      }
      ps.progress_until([&] {
        return std::all_of(xin.begin(), xin.end(),
                           [](const auto& c) { return c->req->done(); });
      });
      for (const auto& c : xin) {
        if (c->req->status.error != ErrClass::success) {
          bad = 1;
        }
      }
    }

    if (bad == 0 && stripes_of.contains(my_idx)) {
      const SetCodec codec(kk, mm);
      // stripe -> its kk data chunks (reconstructed in place)
      std::map<int, std::vector<std::vector<std::byte>>> stripe_data;
      for (int st : stripes_of.at(my_idx)) {
        std::vector<std::vector<std::byte>> data(
            static_cast<std::size_t>(kk), std::vector<std::byte>(clen));
        std::unique_ptr<bool[]> data_ok(new bool[static_cast<std::size_t>(kk)]);
        std::fill(data_ok.get(), data_ok.get() + kk, false);
        std::vector<const std::byte*> parity(static_cast<std::size_t>(mm),
                                             nullptr);
        const int mypos = (my_idx - st + g) % g;
        if (mypos < kk) {
          std::memcpy(data[static_cast<std::size_t>(mypos)].data(),
                      myblob.data() + static_cast<std::size_t>(mypos) * clen,
                      clen);
          data_ok[mypos] = true;
        } else {
          parity[static_cast<std::size_t>(mypos - kk)] =
              ed.parity.at(st).data();
        }
        for (const auto& xr : xin) {
          if (xr->stripe != st) {
            continue;
          }
          if (xr->from_pos < kk) {
            std::memcpy(data[static_cast<std::size_t>(xr->from_pos)].data(),
                        xr->buf.data(), clen);
            data_ok[xr->from_pos] = true;
          } else {
            parity[static_cast<std::size_t>(xr->from_pos - kk)] =
                xr->buf.data();
          }
        }
        std::vector<std::byte*> dptr(static_cast<std::size_t>(kk));
        for (int j = 0; j < kk; ++j) {
          dptr[static_cast<std::size_t>(j)] =
              data[static_cast<std::size_t>(j)].data();
        }
        if (!codec.reconstruct(dptr.data(), data_ok.get(), parity.data(),
                               clen)) {
          bad = 1;
        }
        stripe_data.emplace(st, std::move(data));
      }
      if (bad == 0) {
        for (int dm : adoptees.at(my_idx)) {
          std::vector<std::byte> blob(static_cast<std::size_t>(kk) * clen);
          for (int j = 0; j < kk; ++j) {
            const int st = lay.stripe_of_chunk(dm, j);
            std::memcpy(blob.data() + static_cast<std::size_t>(j) * clen,
                        stripe_data.at(st)[static_cast<std::size_t>(j)]
                            .data(),
                        clen);
          }
          blob.resize(ed.blob_sizes[static_cast<std::size_t>(dm)]);
          const base::Rank owner = owner_of(dm);
          for (auto& [dsname, bytes] : decode_snapshot(blob)) {
            res.adopted.push_back(Shard{owner, dsname, std::move(bytes)});
          }
          res.from_parity += 1;
          base::counters().add("ckpt.parity_rebuilds");
        }
      }
    }
  }

  // Copy of last resort: durable filesystem spills, adopted round-robin
  // across the surviving communicator.
  for (std::size_t i = 0; i < fs_orphans.size(); ++i) {
    if (comm.rank() != static_cast<int>(i % static_cast<std::size_t>(
                                                comm.size()))) {
      continue;
    }
    const std::string path = fs_path(chosen, fs_orphans[i]);
    const auto sz = fs.size(path);
    if (!sz || !fs.exists(path + ".ok")) {
      bad = 1;
      continue;
    }
    std::vector<std::byte> blob(*sz);
    fs.read(path, 0, blob.data(), blob.size());
    for (auto& [dsname, bytes] : decode_snapshot(blob)) {
      res.adopted.push_back(Shard{fs_orphans[i], dsname, std::move(bytes)});
    }
    res.from_fs += 1;
    base::counters().add("ckpt.fs_rebuilds");
  }

  // Uniform verdict: one lost shard fails the restore on every rank.
  std::uint64_t worst = 0;
  comm.allreduce(&bad, &worst, 1, datatype_of<std::uint64_t>(), Op::max());
  if (worst != 0) {
    // Flight recorder: an unrecoverable restore is the end of the line for
    // this job — capture the rings before unwinding destroys the evidence.
    obs::trigger_postmortem("ckpt_unrecoverable_restore");
    throw Error(ErrClass::rte_not_found,
                "ckpt: unrecoverable shard in epoch " + std::to_string(chosen) +
                    " (no surviving redundancy or durable spill)");
  }

  last_committed_ = chosen;
  epochs_.erase(epochs_.upper_bound(chosen), epochs_.end());
  return res;
}

}  // namespace sessmpi::ckpt
