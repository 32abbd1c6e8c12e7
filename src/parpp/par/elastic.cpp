#include "parpp/par/elastic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "parpp/mpsim/grid.hpp"
#include "parpp/solver/spec.hpp"

namespace parpp::par {

BuddyStore::BuddyStore(int world_size) {
  slots_.reserve(static_cast<std::size_t>(world_size));
  std::vector<int> all;
  for (int r = 0; r < world_size; ++r) {
    slots_.push_back(std::make_unique<Slot>());
    all.push_back(r);
  }
  rosters_.push_back(std::move(all));  // epoch 0: the full world
}

void BuddyStore::publish(int world_rank, int epoch, const LoopState& state,
                         ParCpContext& ctx) {
  // Build the generation fully before touching the slot, so an exception
  // mid-copy can never leave a half-written snapshot behind.
  Generation g;
  g.epoch = epoch;
  g.state = state;
  g.nnz = ctx.local_problem().nnz();
  const int n = ctx.order();
  auto& fd = ctx.factor_dist();
  g.modes.resize(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    const la::Matrix& q = fd.q(m);
    // Owned rows are the leading run of the chunk (q_row_global is
    // base + r, cut off at the slab end); everything past is padding.
    index_t count = 0;
    while (count < q.rows() && fd.q_row_global(m, count) >= 0) ++count;
    ModeRows& mr = g.modes[static_cast<std::size_t>(m)];
    mr.row0 = count > 0 ? fd.q_row_global(m, 0) : 0;
    mr.rows = la::Matrix(count, q.cols());
    if (count > 0)
      std::copy(q.data(), q.data() + count * q.cols(), mr.rows.data());
  }
  Slot& s = *slots_[static_cast<std::size_t>(world_rank)];
  std::lock_guard<std::mutex> lk(s.mutex);
  s.prev = std::move(s.cur);
  s.cur = std::move(g);
}

void BuddyStore::start_epoch(int index, const std::vector<int>& roster) {
  std::lock_guard<std::mutex> lk(roster_mutex_);
  // Every survivor of a shrink calls this with the identical roster; only
  // the first append takes effect.
  if (static_cast<std::size_t>(index) == rosters_.size())
    rosters_.push_back(roster);
}

int BuddyStore::num_epochs() {
  std::lock_guard<std::mutex> lk(roster_mutex_);
  return static_cast<int>(rosters_.size());
}

std::vector<int> BuddyStore::roster(int epoch) {
  std::lock_guard<std::mutex> lk(roster_mutex_);
  return rosters_[static_cast<std::size_t>(epoch)];
}

int BuddyStore::latest_sweep_in_epoch(int world_rank, int epoch) {
  Slot& s = *slots_[static_cast<std::size_t>(world_rank)];
  std::lock_guard<std::mutex> lk(s.mutex);
  int latest = -1;
  if (s.cur.epoch == epoch) latest = s.cur.state.sweep;
  if (s.prev.epoch == epoch) latest = std::max(latest, s.prev.state.sweep);
  return latest;
}

BuddyStore::Generation BuddyStore::generation_at(int world_rank, int sweep,
                                                 int epoch, bool* ok) {
  Slot& s = *slots_[static_cast<std::size_t>(world_rank)];
  std::lock_guard<std::mutex> lk(s.mutex);
  if (s.cur.state.sweep == sweep && s.cur.epoch == epoch) {
    *ok = true;
    return s.cur;
  }
  if (s.prev.state.sweep == sweep && s.prev.epoch == epoch) {
    *ok = true;
    return s.prev;
  }
  *ok = false;
  return {};
}

bool BuddyStore::any_published() {
  for (auto& sp : slots_) {
    std::lock_guard<std::mutex> lk(sp->mutex);
    if (sp->cur.epoch >= 0) return true;
  }
  return false;
}

void ElasticAttempt::begin_epoch(ParCpContext& ctx) const {
  if (comm.rank() == 0) {
    report->final_ranks = comm.size();
    if (shrunk)
      report->post_shrink_nnz_imbalance = ctx.nnz_imbalance();
    else
      report->nnz_imbalance = ctx.nnz_imbalance();
    // The epoch replays every sweep after `start`: drop their counts and
    // records, which the first attempt already booked.
    report->num_als_sweeps = start.num_als;
    report->num_pp_init = start.num_pp_init;
    report->num_pp_approx = start.num_pp_approx;
    if (report->history.size() > start.records)
      report->history.resize(start.records);
  }
  // Conservation check of a repartitioned sparse epoch against the buddy
  // manifest: the new partition must account for every nonzero the old one
  // held. Collective; the branch is replicated (expected_nnz is identical
  // on every survivor and nnz() is -1 on all ranks or on none).
  if (expected_nnz >= 0 && ctx.local_problem().nnz() >= 0) {
    double local = static_cast<double>(ctx.local_problem().nnz());
    comm.allreduce_sum(&local, 1,
                       PARPP_COMM_TAG("shrink-nnz-conservation-allreduce"));
    const auto total = static_cast<index_t>(std::llround(local));
    PARPP_CHECK(total == expected_nnz,
                "elastic repartition lost nonzeros: buddy manifest holds ",
                expected_nnz, " but the shrunken grid holds ", total);
  }
}

void ElasticAttempt::publish(ParCpContext& ctx,
                             const LoopState& state) const {
  if (store != nullptr) store->publish(comm.world_rank(), epoch, state, ctx);
}

namespace {

struct RebuiltState {
  std::vector<la::Matrix> factors;  ///< empty = cold restart
  LoopState state;
  index_t manifest_nnz = -1;
};

std::string dims_string(const std::vector<int>& dims) {
  std::string s;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) s += "x";
    s += std::to_string(dims[i]);
  }
  return s;
}

std::string ranks_string(const std::vector<int>& ranks) {
  std::string s;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(ranks[i]);
  }
  return s;
}

/// Reconstructs the global factor matrices from the newest epoch whose
/// roster is fully AVAILABLE under the buddy rule: every roster member is
/// either alive now or survived by its ring buddy (which holds its
/// replica), and every roster slot still carries a generation of that epoch
/// at a common sweep. Row ownership changes when the grid shrinks, so a
/// consistent set can only come from slots of one epoch; walking epochs
/// newest-first covers the window right after a shrink where survivors have
/// not yet republished under the new layout. The chosen roster's slots are
/// disjoint row blocks; one All-Reduce per mode on the new communicator
/// assembles them. Throws CommFailure when state was published but no epoch
/// is recoverable (e.g. a rank and its buddy died in the same round) —
/// every survivor computes the identical verdict from identical slot data,
/// so the abort stays collective.
RebuiltState rebuild_from_store(mpsim::Comm& nc, BuddyStore& store,
                                const std::vector<index_t>& shape,
                                index_t cp_rank,
                                const RebuiltState* fallback) {
  const int me = nc.world_rank();
  const std::vector<int>& now = nc.group_world_ranks();
  const auto alive = [&](int w) {
    return std::find(now.begin(), now.end(), w) != now.end();
  };
  const bool have_fallback = fallback != nullptr && !fallback->factors.empty();

  RebuiltState rs;
  if (!store.any_published() && !have_fallback)
    return rs;  // nothing replicated: cold restart

  // Newest-first epoch walk; remember why the newest candidates failed so
  // the abort message names the real obstruction.
  std::string obstruction;
  const int cur = store.num_epochs() - 1;
  for (int e = cur; e >= 0; --e) {
    // The previous round's rebuilt snapshot is held in full by EVERY
    // survivor, so once the newest epoch is ruled out it beats any older
    // epoch (whose rollback point cannot be newer) and needs no collective:
    // all survivors reach this identical verdict from identical state.
    if (e < cur && have_fallback) return *fallback;

    const std::vector<int> roster = store.roster(e);
    const std::size_t np = roster.size();

    // Availability: who reads each slot. A member reads its own slot; a
    // dead member's slot is read by its ring buddy (the next roster member)
    // on its behalf — the buddy is the replica holder, so both dying in the
    // same round genuinely loses the rows.
    bool available = true;
    std::vector<int> reads;  // slots this rank contributes
    for (std::size_t i = 0; i < np && available; ++i) {
      const int w = roster[i];
      if (alive(w)) {
        if (w == me) reads.push_back(w);
        continue;
      }
      const int buddy = roster[(i + 1) % np];
      if (!alive(buddy)) {
        available = false;
        if (obstruction.empty())
          obstruction = "ranks " + std::to_string(w) + " and " +
                        std::to_string(buddy) +
                        " (its replica holder) were lost in the same round; "
                        "owned factor rows are unrecoverable";
        break;
      }
      if (buddy == me) reads.push_back(w);
    }
    if (!available) continue;

    // The agreed rollback point within the epoch: the newest generation
    // every roster member still holds (the spread-<=1 rendezvous argument
    // bounds the in-epoch spread; older epochs may have been evicted from
    // the two-generation window, which just fails this epoch).
    int common = store.latest_sweep_in_epoch(roster[0], e);
    for (std::size_t i = 1; i < np; ++i)
      common = std::min(common, store.latest_sweep_in_epoch(roster[i], e));
    // No common generation: either the epoch was just registered and never
    // published (benign — the previous epoch or the fallback has the data)
    // or its window rolled over. Both just mean "look older".
    if (common < 0) continue;

    const int n = static_cast<int>(shape.size());
    rs.factors.assign(static_cast<std::size_t>(n), la::Matrix());
    for (int m = 0; m < n; ++m)
      rs.factors[static_cast<std::size_t>(m)] =
          la::Matrix(shape[static_cast<std::size_t>(m)], cp_rank);

    // All slot reads happen before the first All-Reduce below: no survivor
    // can leave recovery (and publish a fresh generation) until every other
    // survivor reached that rendezvous, so the reads see frozen slots.
    bool dense = false;
    index_t nnz_total = 0;
    bool consistent = true;
    for (std::size_t i = 0; i < np && consistent; ++i) {
      bool ok = false;
      const BuddyStore::Generation g =
          store.generation_at(roster[i], common, e, &ok);
      if (!ok) {
        // A slot advanced past the window between the min scan and this
        // read cannot happen (slots are frozen); a missing generation means
        // the epoch's window already rolled over. Try an older epoch.
        consistent = false;
        if (obstruction.empty())
          obstruction = "shrink recovery: replica generations diverged "
                        "(rank " +
                        std::to_string(roster[i]) + " holds no sweep-" +
                        std::to_string(common) + " snapshot of epoch " +
                        std::to_string(e) + ")";
        break;
      }
      if (g.nnz < 0)
        dense = true;
      else
        nnz_total += g.nnz;
      // The loop scalars are replicated at a generation; any slot serves.
      if (i == 0) rs.state = g.state;
      if (std::find(reads.begin(), reads.end(), roster[i]) == reads.end())
        continue;
      for (int m = 0; m < n; ++m) {
        const BuddyStore::ModeRows& mr = g.modes[static_cast<std::size_t>(m)];
        la::Matrix& global = rs.factors[static_cast<std::size_t>(m)];
        for (index_t r = 0; r < mr.rows.rows(); ++r)
          std::copy(mr.rows.row(r), mr.rows.row(r) + mr.rows.cols(),
                    global.row(mr.row0 + r));
      }
    }
    if (!consistent) {
      rs.factors.clear();
      continue;
    }
    rs.manifest_nnz = dense ? -1 : nnz_total;

    for (int m = 0; m < n; ++m) {
      la::Matrix& global = rs.factors[static_cast<std::size_t>(m)];
      nc.allreduce_sum(global.data(), global.size(),
                       PARPP_COMM_TAG("shrink-factor-rebuild-allreduce"));
    }
    return rs;
  }

  if (have_fallback) return *fallback;

  // State was published but no epoch can be assembled: refuse to continue
  // from a corrupt or partial iterate.
  throw mpsim::CommFailure(obstruction.empty()
                               ? std::string("shrink recovery: no replica "
                                             "epoch is recoverable")
                               : obstruction);
}

}  // namespace

void run_with_elastic(mpsim::Comm& comm, const dist::DistProblem& problem,
                      const solver::SolverSpec& spec, const SolveStart& start,
                      BuddyStore& store, solver::SolveReport& report,
                      std::vector<char>& removed,
                      const std::function<void(ElasticAttempt&)>& body) {
  // The caller's start: its warm start (null = seeded init) and the
  // stopping-rule state of a loaded checkpoint.
  const std::vector<la::Matrix>* warm_start =
      spec.initial_factors.empty() ? nullptr : &spec.initial_factors;
  LoopState cold_state;
  cold_state.fit = start.fitness;
  cold_state.fit_old = start.prev_fitness;
  const ElasticOptions& options = spec.execution.elastic;
  ElasticAttempt at;
  at.comm = comm;
  at.grid_dims = spec.execution.grid_dims;
  at.init_factors = warm_start;
  at.start = cold_state;
  if (options.mode == ElasticMode::kShrink) at.store = &store;
  at.report = &report;
  const bool elastic =
      options.mode == ElasticMode::kShrink && at.comm.shrink_supported();
  int shrinks = 0;
  std::vector<la::Matrix> warm;  // owns the rebuilt snapshot across epochs
  // Full copy of the last rebuilt snapshot, replicated on every survivor:
  // the recovery source of last resort for a failure that lands before the
  // new epoch's first publish.
  RebuiltState last_good;
  for (;;) {
    std::string failure;
    try {
      body(at);
      return;
    } catch (const mpsim::CommFailure& e) {
      if (!elastic || shrinks >= options.max_shrinks ||
          at.comm.marked_dead())
        throw;
      failure = e.what();
    } catch (const std::exception& e) {
      // Local failure: register this rank's death and poison the *current*
      // epoch's tree (the driver's catch poisons the original one, which
      // after a shrink is already dead) so survivors can shrink past us.
      at.comm.mark_self_dead(std::string("local exception: ") + e.what());
      at.comm.poison("rank " + std::to_string(at.comm.world_rank()) +
                     " failed: " + e.what());
      throw;
    }
    // Consensus + rebuild. A second failure in here propagates to the
    // driver's abort path: recovery that cannot complete ends cleanly.
    const std::vector<int> old_parts = at.comm.group_world_ranks();
    mpsim::Comm nc = at.comm.shrink(PARPP_COMM_TAG("elastic-shrink"));
    ++shrinks;
    const std::vector<int>& now = nc.group_world_ranks();
    std::vector<int> lost;
    for (int w : old_parts)
      if (std::find(now.begin(), now.end(), w) == now.end())
        lost.push_back(w);
    store.start_epoch(shrinks, now);
    RebuiltState rs = rebuild_from_store(nc, store, problem.global_shape(),
                                         spec.rank, &last_good);
    const int order = static_cast<int>(problem.global_shape().size());
    at.comm = nc;
    at.epoch = shrinks;
    at.grid_dims = mpsim::ProcessorGrid::balanced_dims(nc.size(), order);
    at.shrunk = true;
    const bool cold = rs.factors.empty();
    if (cold) {
      // Nothing was replicated yet (failure during setup): redo the
      // caller's deterministic initialization on the new grid.
      at.init_factors = warm_start;
      at.start = cold_state;
      at.expected_nnz = -1;
      last_good = RebuiltState{};
    } else {
      last_good = rs;  // keep the replicated copy before handing rs over
      warm = std::move(rs.factors);
      at.init_factors = &warm;
      at.start = rs.state;
      at.expected_nnz = rs.manifest_nnz;
    }
    if (nc.rank() == 0) {
      const std::string resume_from =
          cold ? "restarting from the initial factors (no snapshot had been "
                 "replicated yet)"
               : "resuming from the sweep-" + std::to_string(rs.state.sweep) +
                     " replicated snapshot";
      std::string what;
      if (lost.empty()) {
        what = "communicator rebuilt after transient failure (" + failure +
               "); all " + std::to_string(nc.size()) + " rank(s) rejoined, " +
               resume_from;
        if (report.status == core::SolveStatus::kOk)
          report.status = core::SolveStatus::kRecovered;
      } else {
        what = "rank(s) " + ranks_string(lost) + " lost (" + failure +
               "): communicator shrunk " + std::to_string(old_parts.size()) +
               " -> " + std::to_string(now.size()) +
               "; repartitioned onto grid " +
               dims_string(at.grid_dims) + ", " + resume_from;
        if (report.status != core::SolveStatus::kNumericalAbort &&
            report.status != core::SolveStatus::kCommAbort)
          report.status = core::SolveStatus::kRecoveredShrunk;
        for (int d : lost) removed[static_cast<std::size_t>(d)] = 1;
      }
      report.recovery_log.push_back({rs.state.sweep, what});
      report.final_ranks = nc.size();
    }
  }
}

namespace {

/// Folds the per-rank abort slots the rank bodies record on CommFailure (or
/// a poisoned local exception) into `report`: identical reasons are grouped
/// into one deterministic recovery_log event listing the ranks, and the
/// status becomes kCommAbort. Slots of ranks in `removed` (world-rank
/// indexed) were folded into a successful shrink's recovery_log entry
/// already, so their expected abort reasons are skipped. No-op when no
/// slot is set.
void merge_abort_records(solver::SolveReport& report,
                         const std::vector<std::string>& reasons,
                         const std::vector<int>& sweeps,
                         const std::vector<char>& removed) {
  bool any = false;
  // Group identical reasons in first-rank order so the log is deterministic
  // and compact (a tree-wide poison gives every rank the same reason).
  std::vector<std::pair<std::string, std::string>> groups;  // reason -> ranks
  std::vector<int> group_sweep;
  for (std::size_t r = 0; r < reasons.size(); ++r) {
    if (reasons[r].empty()) continue;
    // Ranks folded into a successful shrink are already covered by the
    // recovery_log entry the survivors wrote; their unwind records must not
    // flip a recovered-shrunk run into a comm-abort.
    if (r < removed.size() && removed[r] != 0) continue;
    any = true;
    bool found = false;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      if (groups[g].first == reasons[r]) {
        groups[g].second += ',';
        groups[g].second += std::to_string(r);
        group_sweep[g] = std::max(group_sweep[g], sweeps[r]);
        found = true;
        break;
      }
    }
    if (!found) {
      groups.emplace_back(reasons[r], std::to_string(r));
      group_sweep.push_back(sweeps[r]);
    }
  }
  if (!any) return;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    report.recovery_log.push_back(
        {group_sweep[g],
         "rank(s) " + groups[g].second + ": " + groups[g].first});
  }
  report.status = core::SolveStatus::kCommAbort;
}

/// Slowest-rank reduction. Per sweep: the whole-rank profile of the rank
/// with the largest total time (sweep_profiles) and the per-category
/// maximum over ranks, summed into critical_path_profile. Ranks can hold
/// different counts after an elastic shrink; each sweep folds the ranks
/// that recorded it.
void fold_sweep_profiles(solver::SolveReport& report,
                         const std::vector<std::vector<Profile>>& per_rank) {
  for (std::size_t s = 0;; ++s) {
    Profile worst;
    Profile cat_max;
    double worst_total = -1.0;
    bool any = false;
    for (const auto& rank : per_rank) {
      if (s >= rank.size()) continue;
      any = true;
      cat_max.max_merge(rank[s]);
      if (rank[s].total_seconds() > worst_total) {
        worst_total = rank[s].total_seconds();
        worst = rank[s];
      }
    }
    if (!any) return;
    report.sweep_profiles.push_back(worst);
    report.critical_path_profile.accumulate(cat_max);
  }
}

}  // namespace

void run_sweep_loop(const dist::DistProblem& problem,
                    const solver::SolverSpec& spec, const SolveStart& start,
                    solver::SolveReport& report, const SweepLoop& loop) {
  const int nprocs = spec.execution.nprocs;
  const auto ranks = static_cast<std::size_t>(nprocs);
  std::vector<std::vector<Profile>> profiles(ranks);
  std::vector<std::string> abort_reasons(ranks);
  std::vector<int> abort_sweeps(ranks, 0);
  BuddyStore store(nprocs);
  std::vector<char> removed(ranks, 0);

  mpsim::RunOptions ropt;
  ropt.threads_per_rank = spec.execution.threads_per_rank;
  ropt.fault = spec.execution.fault;
  ropt.comm_timeout_seconds = spec.execution.comm_timeout_seconds;
  const mpsim::RunResult run_result = mpsim::run(
      nprocs,
      [&](mpsim::Comm& world) {
        const auto me = static_cast<std::size_t>(world.rank());
        LoopState state;
        try {
          run_with_elastic(world, problem, spec, start, store, report,
                           removed, [&](ElasticAttempt& at) {
                             loop(at, profiles[me], state);
                           });
        } catch (const mpsim::CommFailure& e) {
          abort_reasons[me] = e.what();
          abort_sweeps[me] = state.sweep;
        } catch (const std::exception& e) {
          // A lone rank has no peer to unwind, so its failure (a bad warm
          // start, an engine the storage cannot run) reaches the caller.
          if (nprocs == 1) throw;
          // Local failure: poison the communicator tree so peers unwind
          // (they record the poison reason as their own CommFailure). The
          // elastic runner already poisoned the current epoch's tree.
          abort_reasons[me] = std::string("local exception: ") + e.what();
          abort_sweeps[me] = state.sweep;
          world.poison("rank " + std::to_string(world.rank()) +
                       " failed: " + e.what());
        }
      },
      ropt);
  merge_abort_records(report, abort_reasons, abort_sweeps, removed);
  fold_sweep_profiles(report, profiles);
  for (const Profile& p : report.sweep_profiles) report.profile.accumulate(p);
  report.comm_cost = run_result.max_cost();
  // A guardrail or communicator failure ended the run; the recovery log
  // carries the why, and the stop reason points the caller at it.
  if (report.status == core::SolveStatus::kNumericalAbort ||
      report.status == core::SolveStatus::kCommAbort)
    report.stop_reason = solver::StopReason::kFault;
  // A resumed run reports the cumulative sweep count, so resumed and
  // uninterrupted runs with the same budget report the same totals.
  report.sweeps += start.sweep_offset;
  report.num_als_sweeps += start.sweep_offset;
}

}  // namespace parpp::par
