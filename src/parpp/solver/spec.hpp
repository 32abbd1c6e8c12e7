// SolverSpec / SolveReport — the one composable description of a CP solve.
//
// The paper's observation is that every CP variant — plain ALS (Alg. 1),
// pairwise perturbation (Alg. 2/4) and the nonnegative HALS the PLANC
// baseline runs — shares the same MTTKRP bottleneck. The spec below makes
// the variants composable instead of multiplicative: `Method` picks two
// switches of the one sweep loop (PP phases on or off, the normal-equations
// solve or HALS), `Execution` picks how many simulated message-passing
// ranks run it (one rank is the sequential solve), `engine` picks the
// MTTKRP amortization, and stopping / warm start / observation are
// orthogonal to all three. Every cell of the method × execution × storage
// matrix runs through parpp::solve(), the only entry point to a solve; the
// loop reads the spec itself and fills the SolveReport.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "parpp/core/cp_als.hpp"
#include "parpp/core/nncp.hpp"
#include "parpp/core/pp_als.hpp"
#include "parpp/mpsim/cost.hpp"
#include "parpp/par/par_cp_als.hpp"

namespace parpp::solver {

/// Non-owning view of the decomposition input — the storage axis of the
/// solve. Implicitly constructible from either storage class, so
/// parpp::solve(tensor, spec) reads the same for dense and sparse callers;
/// solve() converts it into one dist::DistProblem (sparse runs never
/// densify — they go through the CSF engine). The referenced tensor must
/// outlive the solve call.
class TensorSource {
 public:
  /*implicit*/ TensorSource(const tensor::DenseTensor& t) : dense_(&t) {}
  /*implicit*/ TensorSource(const tensor::CsfTensor& t) : sparse_(&t) {}

  [[nodiscard]] bool is_sparse() const { return sparse_ != nullptr; }
  [[nodiscard]] const tensor::DenseTensor& dense() const {
    PARPP_CHECK(dense_ != nullptr, "TensorSource: not a dense tensor");
    return *dense_;
  }
  [[nodiscard]] const tensor::CsfTensor& sparse() const {
    PARPP_CHECK(sparse_ != nullptr, "TensorSource: not a sparse tensor");
    return *sparse_;
  }

 private:
  const tensor::DenseTensor* dense_ = nullptr;
  const tensor::CsfTensor* sparse_ = nullptr;
};

/// The factor-update rule (one axis of the solver matrix).
enum class Method {
  kAls,       ///< CP-ALS, normal-equations solve (Algorithm 1 / 3)
  kPp,        ///< pairwise-perturbation-accelerated ALS (Algorithm 2 / 4)
  kNncpHals,  ///< nonnegative CP via HALS column updates
  kPpNncp,    ///< PP-accelerated nonnegative HALS (new: PP × NNCP)
};

/// Whether the sweep loop enters PP phases for `m`.
[[nodiscard]] constexpr bool uses_pp(Method m) {
  return m == Method::kPp || m == Method::kPpNncp;
}

/// Whether the factor update is HALS (else the normal-equations solve).
[[nodiscard]] constexpr bool uses_hals(Method m) {
  return m == Method::kNncpHals || m == Method::kPpNncp;
}

/// Where the sweeps run: the simulated message-passing runtime (Algorithm
/// 3/4) with nprocs ranks. One rank is the sequential solve: it runs inline
/// on the calling thread with the caller's OpenMP team and reads the
/// caller's tensor in place; more ranks run one thread-rank per processor
/// on their own blocks.
struct Execution {
  int nprocs = 1;
  /// Processor grid; empty picks mpsim::ProcessorGrid::balanced_dims.
  std::vector<int> grid_dims = {};
  /// How the R x R normal equations are solved on the grid (ignored by the
  /// HALS methods, whose update is row-local).
  par::SolveMode solve_mode = par::SolveMode::kDistributedRows;
  /// OpenMP threads per rank when nprocs > 1 (one rank keeps the caller's
  /// team).
  int threads_per_rank = 1;
  /// How sparse inputs are partitioned over the grid: uniform blocks, or
  /// nnz-balanced chains-on-chains boundaries for skewed tensors (same
  /// answers, flatter per-rank load). Dense inputs ignore it.
  dist::PartitionKind partition = dist::PartitionKind::kUniformBlocks;
  /// Injected communication fault for chaos runs (kNone = clean). Requires
  /// a parallel execution — faults live in the simulated message-passing
  /// runtime, so solve() rejects an active plan with nprocs == 1.
  mpsim::FaultPlan fault = {};
  /// Collective timeout in seconds; <= 0 picks the runtime default (60 s,
  /// or 2 s when a fault plan is active).
  double comm_timeout_seconds = 0.0;
  /// Elastic fault recovery: with ElasticMode::kShrink, a rank failure
  /// shrinks the communicator to the survivors, repartitions the tensor,
  /// and resumes from the buddy-replicated snapshot instead of aborting
  /// (SolveReport::status reports kRecoveredShrunk). kOff keeps the abort
  /// semantics. A 1-rank execution has no rank to lose.
  par::ElasticOptions elastic = {};

  [[nodiscard]] bool is_parallel() const { return nprocs > 1; }

  [[nodiscard]] static Execution sequential() { return {}; }
  [[nodiscard]] static Execution simulated_parallel(
      int nprocs, std::vector<int> grid_dims = {},
      par::SolveMode solve_mode = par::SolveMode::kDistributedRows,
      int threads_per_rank = 1) {
    Execution e;
    e.nprocs = nprocs;
    e.grid_dims = std::move(grid_dims);
    e.solve_mode = solve_mode;
    e.threads_per_rank = threads_per_rank;
    return e;
  }
};

/// Composable stopping criteria; the run stops at the first one that fires.
struct StoppingRule {
  int max_sweeps = 300;
  /// Stop when |fitness(t) - fitness(t-1)| < tol (the paper's criterion).
  double fitness_tol = 1e-5;
  /// Wall-clock budget in seconds; <= 0 means unlimited.
  double max_seconds = 0.0;
  /// Arbitrary user criterion, checked once per sweep; true stops the run.
  std::function<bool(const core::SweepRecord&)> predicate = {};
};

/// Why a solve returned.
enum class StopReason {
  kConverged,   ///< fitness delta fell below fitness_tol
  kMaxSweeps,   ///< sweep budget exhausted
  kTimeBudget,  ///< wall-clock budget exhausted
  kPredicate,   ///< StoppingRule::predicate fired
  kObserver,    ///< the observer requested a stop
  kFault,       ///< a guardrail or communicator failure ended the run
                ///< (SolveReport::status and recovery_log say why)
};

/// Checkpoint/restart policy. With a path and every > 0, the loop writes
/// a crash-consistent checkpoint (factors + sweep counter + stopping-rule
/// state + RNG provenance) after the first exact sweep that lands `every`
/// or more sweeps past the previous checkpoint — PP phases are never
/// checkpointed, so the saved factors are never mid-approximation. With
/// resume set, solve() first tries to load `path`: if the file exists the
/// run warm-starts from it and only spends the remaining sweep budget; if
/// it does not (e.g. the previous run died before the first checkpoint)
/// the run cold-starts — so a kill-and-resume loop needs no coordination
/// about whether a checkpoint was reached.
struct CheckpointOptions {
  std::string path;   ///< empty disables checkpointing entirely
  int every = 0;      ///< checkpoint period in sweeps; <= 0 disables saves
  bool resume = false;

  [[nodiscard]] bool saving() const { return !path.empty() && every > 0; }
};

enum class ObserverAction { kContinue, kStop };

/// Per-sweep callback: receives the record just produced and a view of the
/// current factors (empty when nprocs > 1, whose factors live distributed
/// until the run assembles them). Subsumes record_history for
/// streaming progress and enables early abort.
using Observer = std::function<ObserverAction(
    const core::SweepRecord&, const std::vector<la::Matrix>&)>;

/// Everything parpp::solve() needs. The defaults run sequential MSDT ALS
/// with the paper's stopping rule on a cold start.
struct SolverSpec {
  Method method = Method::kAls;
  index_t rank = 16;
  std::uint64_t seed = 42;

  /// MTTKRP engine for the regular sweeps — the one engine setting for
  /// every method and execution. The PP methods need a tree engine for
  /// their operator-build amortization, so parpp::solve() promotes kNaive
  /// to kMsdt for them, on every rank count. Sparse storage has one engine,
  /// so every kind resolves to the CSF walk there.
  core::EngineKind engine = core::EngineKind::kMsdt;
  core::EngineOptions engine_options = {};

  Execution execution = {};
  StoppingRule stopping = {};

  /// PP knobs; used by kPp and kPpNncp.
  core::PpOptions pp = {};
  /// HALS knobs; used by kNncpHals and kPpNncp.
  core::NncpOptions nncp = {};

  /// Warm start: when non-empty, used instead of the seeded initialization
  /// (one matrix per mode, extent x rank). Enables rank continuation and
  /// restart scenarios; pair with the factors of a previous SolveReport.
  std::vector<la::Matrix> initial_factors = {};

  /// Checkpoint/restart; inert by default. A loaded checkpoint overrides
  /// initial_factors.
  CheckpointOptions checkpoint = {};

  bool record_history = true;
  Observer observer = {};
};

/// Result of a solve, as the sweep loop fills it on every rank count.
struct SolveReport {
  std::vector<la::Matrix> factors;  ///< assembled global factors
  double residual = 1.0;
  double fitness = 0.0;
  int sweeps = 0;  ///< total sweeps of any kind
  /// kConverged when the last fitness pair the loop compared was within
  /// fitness_tol, kMaxSweeps when the sweep budget ran out otherwise, the
  /// named reason when the time budget, predicate or observer stopped the
  /// run, kFault when `status` is an abort.
  StopReason stop_reason = StopReason::kConverged;
  std::vector<core::SweepRecord> history;
  Profile profile;

  /// Resilience outcome (kOk + empty log on the happy path). Any abort
  /// status also sets stop_reason = kFault (factors may then be empty —
  /// assembly is collective and is skipped once ranks have unwound);
  /// kRecovered keeps the normal stop reason — the run completed, the log
  /// just explains the bumps.
  core::SolveStatus status = core::SolveStatus::kOk;
  std::vector<core::RecoveryEvent> recovery_log;

  // Sweep counts by kind (PP statistics zero for the plain methods). Every
  // sweep run counts, a rolled-back one too, and after an elastic shrink
  // the replayed sweeps count once, so they sum to `sweeps` whenever the
  // loop ran to its end (a communicator abort leaves `sweeps` at the last
  // exact sweep).
  int num_als_sweeps = 0;
  int num_pp_init = 0;
  int num_pp_approx = 0;

  /// Modeled communication cost of the busiest rank (zero at one rank).
  mpsim::CostCounter comm_cost;
  /// Loop time at the last sweep record over the sweeps run by then.
  double mean_sweep_seconds = 0.0;
  /// Per-sweep profile of the slowest rank; `profile` is their sum, so it
  /// books the sweeps and not the set-up.
  std::vector<Profile> sweep_profiles;
  /// Per-category critical path: the sum over sweeps of the per-rank
  /// maximum of each kernel class. Unlike sweep_profiles (one whole-rank
  /// snapshot), its TTM seconds are the MTTKRP time of whichever rank was
  /// slowest at MTTKRP each sweep — the load-balance figure of merit. At
  /// one rank it equals `profile`.
  Profile critical_path_profile;
  /// Per-rank nonzero load imbalance, max / mean (1.0 = perfectly even, as
  /// at one rank; 0.0 for dense runs, whose blocks report no nnz).
  double nnz_imbalance = 0.0;
  /// Ranks the run finished on (== execution.nprocs unless an elastic
  /// shrink removed some).
  int final_ranks = 0;
  /// nnz_imbalance of the repartitioned grid after the last shrink
  /// (0.0 when no shrink happened or the blocks report no nnz).
  double post_shrink_nnz_imbalance = 0.0;
};

}  // namespace parpp::solver
