// Elastic shrink-and-continue machinery shared by the parallel drivers.
//
// ULFM-style continuation over the simulator: when a rank dies mid-solve,
// the survivors (a) agree on the live set and rebuild a smaller world
// communicator (mpsim::Comm::shrink), (b) repartition the tensor onto the
// shrunken grid, and (c) restore the factor iterate from a replicated
// snapshot and re-enter the sweep loop. This header provides the two pieces
// the drivers share:
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
// run_with_elastic — the epoch loop. Runs a driver body; on CommFailure with
// shrink enabled it shrinks the communicator, rebuilds the global factors
// from the store (one All-Reduce per mode on the new communicator),
// recomputes a balanced grid for the survivor count, logs a deterministic
// recovery event, and re-invokes the body warm-started at the agreed sweep.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "parpp/par/par_cp_als.hpp"

namespace parpp::par {

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
    int sweep = -1;  ///< completed sweeps at the snapshot; -1 = never published
    int epoch = -1;  ///< shrink round (roster index) that published it
    double fit = 0.0;
    double fit_old = -1.0;
    index_t nnz = -1;  ///< local nonzeros manifest (-1 = dense storage)
    std::vector<ModeRows> modes;
  };

  explicit BuddyStore(int world_size);

  /// Mirror `ctx`'s current iterate for `world_rank` (current generation;
  /// the previous one is kept as the spread-tolerant fallback).
  void publish(int world_rank, int epoch, int sweep, double fit,
               double fit_old, ParCpContext& ctx);

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

/// Inputs of one solve epoch. The runner rebinds comm/options/warm-start
/// between epochs; the body runs the whole sweep loop against them.
struct ElasticAttempt {
  mpsim::Comm comm;
  ParOptions options;
  /// Warm start for this epoch: the caller's initial factors on the first
  /// epoch, the rebuilt snapshot afterwards (null = seeded init).
  const std::vector<la::Matrix>* init_factors = nullptr;
  int start_sweep = 0;
  double fit = 0.0;
  double fit_old = -1.0;
  bool shrunk = false;  ///< at least one shrink preceded this epoch
  int epoch = 0;        ///< shrink round index; stamps published generations

  /// Per-epoch bookkeeping the drivers would otherwise triplicate: rank-0
  /// result fields (final rank count, grid imbalance — the post-shrink slot
  /// once shrunk) and the nnz-conservation check of a repartitioned sparse
  /// epoch against the buddy manifest (collective when it runs; throws on
  /// loss, which the drivers surface as a clean abort).
  void begin_epoch(ParCpContext& ctx) const;

  /// Mirror this rank's state on the buddy store; no-op when elastic
  /// recovery is off. Call at every lockstep snapshot point.
  void publish(ParCpContext& ctx, int sweep, double cur_fit,
               double cur_fit_old) const;

  // Wired by run_with_elastic.
  BuddyStore* store = nullptr;
  ParResult* result = nullptr;
  index_t expected_nnz = -1;  ///< manifest total for begin_epoch (-1 = none)
};

/// Runs `body` with elastic shrink recovery. On CommFailure with
/// options.elastic.mode == kShrink (and this rank not itself declared dead,
/// and the shrink budget not exhausted) the runner shrinks, rebuilds state,
/// and re-invokes the body; otherwise the failure propagates to the
/// driver's abort-recording catch. Local (non-CommFailure) exceptions mark
/// this rank dead on the shrink board and poison the *current* epoch's tree
/// before propagating, so survivors can shrink past this rank. `removed`
/// (world-size char flags) receives the ranks folded into successful
/// shrinks, for merge_abort_records.
void run_with_elastic(mpsim::Comm& comm, const dist::DistProblem& problem,
                      const ParOptions& options,
                      const core::DriverHooks& hooks, BuddyStore& store,
                      ParResult& result, std::vector<char>& removed,
                      const std::function<void(ElasticAttempt&)>& body);

/// One rank's sweep loop for run_sweep_loop: runs the epoch `at`, appends
/// one Profile per sweep to `profiles` and keeps `sweep` at the completed
/// sweep count (reported in abort records).
using SweepLoop = std::function<void(ElasticAttempt& at,
                                     std::vector<Profile>& profiles,
                                     int& sweep)>;

/// The scaffolding both sweep loops share: runs `loop` on each of `nprocs`
/// simulated ranks under run_with_elastic, turns CommFailures and local
/// exceptions into merged abort records (a 1-rank run rethrows a local
/// exception instead), and finishes `result` with
/// the slowest-rank reduction of the per-rank profiles (sweep_profiles,
/// critical_path_profile), the busiest rank's comm cost and the mean sweep
/// time.
void run_sweep_loop(const dist::DistProblem& problem, int nprocs,
                    const ParOptions& options, const core::DriverHooks& hooks,
                    ParResult& result, const SweepLoop& loop);

}  // namespace parpp::par
