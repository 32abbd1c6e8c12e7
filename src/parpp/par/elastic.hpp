// Elastic shrink-and-continue machinery around the sweep loop.
//
// ULFM-style continuation over the simulator: when a rank dies mid-solve,
// the survivors (a) agree on the live set and rebuild a smaller world
// communicator (mpsim::Comm::shrink), (b) repartition the tensor onto the
// shrunken grid, and (c) restore the factor iterate from a replicated
// snapshot and re-enter the sweep loop. This header provides the two pieces
// the loop runs under:
//
// BuddyStore — the lightweight replica scheme. At every lockstep snapshot
// point (the same place capture_state runs, validated by the next
// sweep-health collective) each rank publishes its owned factor rows, the
// replicated fit scalars, and its nnz manifest into a world-rank-indexed
// slot. Two generations are kept: the rendezvous structure of a sweep (every
// iteration funnels through a world All-Reduce) bounds the cross-rank spread
// to one snapshot generation, so the minimum published sweep is always a
// generation every participant holds — the agreed rollback point. A dead
// rank's slot is read on its behalf by its buddy, the next participant in
// ring order; only a rank and its buddy dying in the same round loses state
// (→ clean abort), which is the classic single-failure guarantee of
// buddy checkpointing.
//
// Generations are additionally tagged with the epoch (shrink round) that
// published them, and the store remembers each epoch's participant roster.
// Row ownership changes when the grid shrinks, so a consistent factor set
// can only be assembled from slots of ONE epoch; recovery walks epochs
// newest-first and uses the newest one whose roster is fully available
// under the buddy rule. This closes the window right after a shrink where
// the survivors have not yet republished under the new layout: the previous
// epoch's roster — including ranks that died in that round, whose slots the
// ring buddies still hold — is used instead.
//
// run_with_elastic — the epoch loop. Runs the sweep loop's rank body; on
// CommFailure with shrink enabled it shrinks the communicator, rebuilds the
// global factors from the store (one All-Reduce per mode on the new
// communicator), recomputes a balanced grid for the survivor count, logs a
// deterministic recovery event, and re-invokes the body warm-started at the
// agreed sweep, with the sweep counts and history rewound to it.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "parpp/par/par_cp_als.hpp"

namespace parpp::solver {
struct SolveReport;
}  // namespace parpp::solver

namespace parpp::par {

/// The replicated scalars of the sweep loop at a snapshot point: what an
/// epoch restarts from besides the factors. Every rank holds the same
/// values, so any replica slot serves.
struct LoopState {
  int sweep = 0;  ///< sweeps of any kind run so far
  double fit = 0.0;
  double fit_old = -1.0;
  int num_als = 0;  ///< sweep counts by kind; they sum to `sweep`
  int num_pp_init = 0;
  int num_pp_approx = 0;
  std::size_t records = 0;  ///< sweep records produced (history entries)
};

/// World-rank-indexed replica store shared by all rank bodies of one solve.
/// Publishes are rank-local under a per-slot mutex; recovery reads foreign
/// slots only after the shrink consensus, when their owners are either
/// unwound (dead) or inside recovery themselves (survivors), so the slot
/// lock is belt-and-braces on top of the rendezvous happens-before chain.
class BuddyStore {
 public:
  struct ModeRows {
    index_t row0 = 0;  ///< global index of the first owned row
    la::Matrix rows;   ///< owned (non-padding) Q rows, count x R
  };
  struct Generation {
    int epoch = -1;  ///< shrink round (roster index); -1 = never published
    LoopState state;   ///< loop scalars at the snapshot
    index_t nnz = -1;  ///< local nonzeros manifest (-1 = dense storage)
    std::vector<ModeRows> modes;
  };

  explicit BuddyStore(int world_size);

  /// Mirror `ctx`'s current iterate and the loop `state` for `world_rank`
  /// (current generation; the previous one is kept as the spread-tolerant
  /// fallback).
  void publish(int world_rank, int epoch, const LoopState& state,
               ParCpContext& ctx);

  /// Register epoch `index`'s participant roster. Every survivor calls this
  /// after a shrink; the call is idempotent (first writer wins, the roster
  /// is identical on all of them).
  void start_epoch(int index, const std::vector<int>& roster);

  [[nodiscard]] int num_epochs();
  [[nodiscard]] std::vector<int> roster(int epoch);

  /// Latest sweep a slot published under `epoch` (-1 when none survives in
  /// the two-generation window).
  [[nodiscard]] int latest_sweep_in_epoch(int world_rank, int epoch);

  /// Copy of the slot's generation with exactly (`sweep`, `epoch`); `ok`
  /// reports whether one exists (current or previous).
  [[nodiscard]] Generation generation_at(int world_rank, int sweep, int epoch,
                                         bool* ok);

  /// Whether any slot ever published anything (distinguishes "cold restart"
  /// from "state existed but is unrecoverable").
  [[nodiscard]] bool any_published();

 private:
  struct Slot {
    std::mutex mutex;
    Generation cur, prev;
  };
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex roster_mutex_;
  std::vector<std::vector<int>> rosters_;
};

/// Inputs of one solve epoch: what changes from one epoch to the next. The
/// runner rebinds them between epochs; the body runs the whole sweep loop
/// against them and the spec.
struct ElasticAttempt {
  mpsim::Comm comm;
  std::vector<int> grid_dims;  ///< processor grid, rebalanced after a shrink
  /// Warm start for this epoch: the caller's initial factors on the first
  /// epoch, the rebuilt snapshot afterwards (null = seeded init).
  const std::vector<la::Matrix>* init_factors = nullptr;
  LoopState start;      ///< where this epoch's sweep loop picks up
  bool shrunk = false;  ///< at least one shrink preceded this epoch
  int epoch = 0;        ///< shrink round index; stamps published generations

  /// Per-epoch bookkeeping on rank 0: the report's final rank count and
  /// grid imbalance (the post-shrink slot once shrunk), and the sweep
  /// counts and history rewound to `start`, so a replayed sweep is counted
  /// once. Then the nnz-conservation check of a repartitioned sparse epoch
  /// against the buddy manifest (collective when it runs; throws on loss,
  /// which the loop surfaces as a clean abort).
  void begin_epoch(ParCpContext& ctx) const;

  /// Mirror this rank's iterate and loop state on the buddy store; no-op
  /// when elastic recovery is off. Call at every lockstep snapshot point.
  void publish(ParCpContext& ctx, const LoopState& state) const;

  // Wired by run_with_elastic.
  BuddyStore* store = nullptr;  ///< null when elastic recovery is off
  solver::SolveReport* report = nullptr;
  index_t expected_nnz = -1;  ///< manifest total for begin_epoch (-1 = none)
};

/// Runs `body` with elastic shrink recovery. On CommFailure with
/// spec.execution.elastic.mode == kShrink (and this rank not itself
/// declared dead, and the shrink budget not exhausted) the runner shrinks,
/// rebuilds state, and re-invokes the body; otherwise the failure
/// propagates to run_sweep_loop's abort-recording catch. Local
/// (non-CommFailure) exceptions mark this rank dead on the shrink board and
/// poison the *current* epoch's tree before propagating, so survivors can
/// shrink past this rank. `removed` (world-size char flags) receives the
/// ranks folded into successful shrinks, for merge_abort_records.
void run_with_elastic(mpsim::Comm& comm, const dist::DistProblem& problem,
                      const solver::SolverSpec& spec, const SolveStart& start,
                      BuddyStore& store, solver::SolveReport& report,
                      std::vector<char>& removed,
                      const std::function<void(ElasticAttempt&)>& body);

/// One rank's sweep loop for run_sweep_loop: runs the epoch `at`, appends
/// one Profile per sweep to `profiles` and keeps `state` current (its sweep
/// count goes into abort records).
using SweepLoop = std::function<void(
    ElasticAttempt& at, std::vector<Profile>& profiles, LoopState& state)>;

/// The scaffolding around the sweep loop: runs `loop` on each of
/// spec.execution.nprocs simulated ranks under run_with_elastic, turns
/// CommFailures and local exceptions into merged abort records (a 1-rank
/// run rethrows a local exception instead), and finishes `report` with the
/// slowest-rank reduction of the per-rank profiles (sweep_profiles, their
/// sum `profile`, critical_path_profile), the busiest rank's comm cost, the
/// kFault stop reason of an aborted run and the sweeps of a loaded
/// checkpoint (start.sweep_offset).
void run_sweep_loop(const dist::DistProblem& problem,
                    const solver::SolverSpec& spec, const SolveStart& start,
                    solver::SolveReport& report, const SweepLoop& loop);

}  // namespace parpp::par
