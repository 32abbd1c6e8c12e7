// Parallel CP-ALS (Algorithm 3) over the mpsim runtime.
#pragma once

#include <memory>
#include <vector>

#include "parpp/core/cp_als.hpp"
#include "parpp/core/nncp.hpp"
#include "parpp/dist/dist_tensor.hpp"
#include "parpp/dist/factor_dist.hpp"
#include "parpp/dist/local_problem.hpp"
#include "parpp/la/spd_solve.hpp"
#include "parpp/mpsim/fault.hpp"
#include "parpp/mpsim/runtime.hpp"

namespace parpp::par {

/// How the R x R normal equations are solved (Sec. II-E discussion).
enum class SolveMode {
  kDistributedRows,       ///< our approach: each rank solves its own Q rows
  kReplicatedSequential,  ///< PLANC-style: gather M, replicated full solve
};

/// Elastic recovery policy after a communicator failure (ULFM-style).
enum class ElasticMode {
  kOff,     ///< legacy behaviour: CommFailure ends the run (clean abort)
  kShrink,  ///< survivors shrink the communicator and continue the solve
};

struct ElasticOptions {
  ElasticMode mode = ElasticMode::kOff;
  /// Shrink rounds a single solve may attempt before giving up.
  int max_shrinks = 3;
};

struct ParOptions {
  /// Rank, stopping rule, seed and the local engine (base.engine,
  /// base.engine_options) every rank runs on its block.
  core::CpOptions base;
  std::vector<int> grid_dims;  ///< product must equal the rank count
  SolveMode solve = SolveMode::kDistributedRows;
  int threads_per_rank = 1;
  /// Injected communication fault for chaos runs (kNone = clean run).
  mpsim::FaultPlan fault = {};
  /// Collective timeout; <= 0 picks the runtime default (60 s, or 2 s when
  /// a fault plan is active).
  double comm_timeout_seconds = 0.0;
  /// Elastic shrink-and-continue policy (off by default: a CommFailure
  /// remains a clean collective abort, bit-for-bit the legacy behaviour).
  ElasticOptions elastic = {};
};

struct ParResult {
  std::vector<la::Matrix> factors;  ///< assembled global factors
  double residual = 1.0;
  double fitness = 0.0;
  int sweeps = 0;
  std::vector<core::SweepRecord> history;  ///< rank-0 wall clock
  /// Per-sweep kernel profile of the slowest rank (Fig. 3c-f breakdown).
  std::vector<Profile> sweep_profiles;
  /// Per-category critical path: sum over sweeps of the per-rank maximum of
  /// each kernel class. Unlike sweep_profiles (one whole-rank snapshot),
  /// its TTM seconds are the MTTKRP time of whichever rank was slowest at
  /// MTTKRP each sweep — the load-balance figure of merit.
  Profile critical_path_profile;
  /// Modeled communication cost of the busiest rank.
  mpsim::CostCounter comm_cost;
  double mean_sweep_seconds = 0.0;
  int num_als_sweeps = 0, num_pp_init = 0, num_pp_approx = 0;
  /// Per-rank nonzero load imbalance, max / mean (1.0 = perfectly even;
  /// 0.0 when the storage reports no nnz, i.e. dense runs).
  double nnz_imbalance = 0.0;
  /// Resilience outcome: kOk on the clean path; kRecovered when guardrails
  /// or tolerated faults fired; kNumericalAbort / kCommAbort when the run
  /// ended early (factors may then be empty — assembly is collective and is
  /// skipped once ranks have unwound). Every non-kOk status comes with at
  /// least one recovery_log event.
  core::SolveStatus status = core::SolveStatus::kOk;
  std::vector<core::RecoveryEvent> recovery_log;
  /// Ranks the solve finished on (== the launch count unless an elastic
  /// shrink removed some; 0 when no epoch started).
  int final_ranks = 0;
  /// nnz imbalance of the repartitioned grid after the last shrink (0.0
  /// when no shrink happened or the storage reports no nnz).
  double post_shrink_nnz_imbalance = 0.0;
};

/// One HALS pass over the Q-distributed rows of A given M = MTTKRP(A's
/// mode) and Γ:
///   A(:,r) <- max(0, A(:,r) + (M(:,r) - A Γ(:,r)) / Γ(r,r))
/// Columns update sequentially (Gauss-Seidel, so later columns see earlier
/// updates — the HALS property), rows independently. The zero-column rescue
/// is global — see rescue_zero_columns.
void hals_update_rows(la::Matrix& a, const la::Matrix& m,
                      const la::Matrix& gamma, double eps_floor);

/// Global zero-column rescue after a mode's HALS passes: `s` is the
/// already All-Reduced Gram of factor `mode`, whose diagonal is the global
/// squared column norm — an exactly-zero entry means the column died on
/// every rank. Each rank then refloors its true (non-padding) Q rows to
/// eps_floor, which keeps Γ nonsingular, and `s` is rebuilt with one extra
/// All-Reduce. Returns whether a rescue fired; when none does (the common
/// case) no additional communication happens.
///
/// Runs once per mode update (after the final inner pass), not after every
/// inner pass: detecting a mid-iteration collapse globally would cost one
/// collective per pass unconditionally.
bool rescue_zero_columns(mpsim::Comm& comm, dist::FactorDist& fd, int mode,
                         la::Matrix& s, double eps_floor);

/// Collective verdict of `hooks.on_sweep`: rank 0 evaluates the hook, the
/// verdict is all-reduced so every rank agrees on continuing. A no-op — and
/// no extra collective — when the hook is absent. The hook sees `factors`
/// on a 1-rank run, whose slices are the whole factors; with more ranks it
/// sees an empty view (factors live distributed).
[[nodiscard]] bool hooks_continue_collective(
    mpsim::Comm& comm, const core::DriverHooks& hooks,
    const core::SweepRecord& rec, const std::vector<la::Matrix>& factors);

/// Per-rank state of Algorithm 3, shared by the plain, PLANC-style, PP and
/// nonnegative parallel drivers. Constructed inside a rank body.
class ParCpContext {
 public:
  /// `problem` must outlive the context. `initial_factors`, when non-null,
  /// replaces the seeded deterministic initialization with a (validated)
  /// global warm start; every rank keeps its own block of the same
  /// matrices.
  ParCpContext(mpsim::Comm& comm, const dist::DistProblem& problem,
               const ParOptions& options,
               const std::vector<la::Matrix>* initial_factors = nullptr);

  /// Replaces the normal-equations solve in every subsequent factor update
  /// (regular and PP-approximated) with `inner_iterations` row-local HALS
  /// passes — the nonnegative CP update of PLANC.
  void enable_hals(double epsilon, int inner_iterations);

  [[nodiscard]] int order() const { return n_; }
  [[nodiscard]] const mpsim::ProcessorGrid& grid() const { return grid_; }
  /// This rank's block as a storage-agnostic local problem (engine and PP
  /// operator factories bound to the block storage).
  [[nodiscard]] const dist::LocalProblem& local_problem() const {
    return *local_;
  }
  [[nodiscard]] dist::FactorDist& factor_dist() { return fd_; }
  [[nodiscard]] std::vector<la::Matrix>& grams() { return grams_; }
  [[nodiscard]] core::MttkrpEngine& engine() { return *engine_; }
  [[nodiscard]] double tensor_sq_norm() const { return t_sq_; }
  /// Per-rank nnz imbalance (max / mean) of the block distribution; 0.0
  /// when the storage reports no nnz. Computed collectively at setup.
  [[nodiscard]] double nnz_imbalance() const { return nnz_imbalance_; }

  /// One regular factor update for `mode` (Algorithm 3 lines 12-18).
  /// Stores Γ and M internally when mode == N-1 for the residual.
  void update_mode(int mode);

  /// Relative residual via Eq. (3); collective (one All-Reduce). The
  /// reduction piggybacks the per-rank health flags (non-finite local
  /// state, Gram-solve guardrail counters, injected-fault notices) onto the
  /// same message, so every rank leaves with a replicated health verdict in
  /// last_health() at no extra collective — the abort-agreement mechanism.
  [[nodiscard]] double residual();

  /// Exact residual at the *current* factors: one fresh local MTTKRP of the
  /// last mode plus the Eq. (3) reductions, with no factor update.
  /// Collective; piggybacks health like residual().
  [[nodiscard]] double measure_residual();

  /// Globally-summed health flags from the last residual()/measure_residual()
  /// call. Replicated: every rank sees the same values, so control flow
  /// branching on them stays in lockstep.
  struct SweepHealth {
    double nonfinite = 0.0;    ///< ranks whose factors/Grams went non-finite
    double guardrail = 0.0;    ///< Gram-solve recoveries (ridge/pinv/zeroed)
    double delays = 0.0;       ///< injected delays tolerated
    double corruptions = 0.0;  ///< injected payload corruptions detected
    [[nodiscard]] bool clean() const {
      return nonfinite == 0.0 && guardrail == 0.0 && delays == 0.0 &&
             corruptions == 0.0;
    }
  };
  [[nodiscard]] const SweepHealth& last_health() const { return last_health_; }

  /// Local snapshot / rollback of the whole per-rank iterate (Q rows,
  /// slices, Grams, residual operands). Both are collective-free; after a
  /// replicated bad-health verdict every rank restores in lockstep and the
  /// engine is re-notified for every mode.
  void capture_state();
  void restore_state();

  /// Solve + propagate an already-reduced Q-shaped (approximate) MTTKRP for
  /// `mode` — the tail of a factor update once ~M(n) has been assembled by
  /// the PP driver (Algorithm 4 lines 9-15).
  void apply_pp_mttkrp(int mode, const la::Matrix& m_q);

  /// Assemble the full factor for `mode` (collective).
  [[nodiscard]] la::Matrix assemble_factor(int mode) {
    return fd_.allgather_global(mode);
  }
  /// Assemble every global factor (collective).
  [[nodiscard]] std::vector<la::Matrix> assemble_factors();

 private:
  void solve_and_propagate(int mode, const la::Matrix& m_q,
                           const la::Matrix& gamma);
  /// Piggybacked reduction: buf[0] is the caller's scalar, buf[1..4] the
  /// local health words; one All-Reduce replicates both.
  [[nodiscard]] double reduce_with_health(double local_scalar);

  mpsim::Comm& comm_;
  ParOptions options_;
  bool hals_ = false;
  double hals_epsilon_ = 1e-12;
  int hals_inner_ = 1;
  int n_;
  mpsim::ProcessorGrid grid_;
  dist::BlockDist dist_;
  std::unique_ptr<dist::LocalProblem> local_;
  dist::FactorDist fd_;
  std::vector<la::Matrix> grams_;
  std::unique_ptr<core::MttkrpEngine> engine_;
  double t_sq_ = 0.0;
  double nnz_imbalance_ = 0.0;
  la::Matrix gamma_last_, mq_last_;

  SweepHealth last_health_;
  la::SpdStats spd_seen_;  ///< counters already folded into a health word
  dist::FactorDist::Snapshot saved_fd_;
  std::vector<la::Matrix> saved_grams_;
  la::Matrix saved_gamma_last_, saved_mq_last_;
  bool have_snapshot_ = false;
};

/// Rank-0 bookkeeping of a replicated health verdict: folds tolerated
/// events (guardrail fires, injected delays/corruptions) into the recovery
/// log and upgrades kOk to kRecovered. Shared by the parallel drivers.
void record_health_events(ParResult& result, int sweep,
                          const ParCpContext::SweepHealth& h);

/// Sweep-rollback budget shared by the resilient drivers.
inline constexpr int kParRollbackBudget = 3;

/// Books a replicated non-finite verdict after the caller restored the
/// pre-sweep iterate on every rank: within kParRollbackBudget it counts a
/// rollback and returns true (retry); past the budget it records the
/// numerical abort and returns false. Rank 0 writes the log.
[[nodiscard]] bool book_rollback(ParResult& result, int rank, int sweep,
                                 int& rollbacks);

/// Runs the plain parallel sweep loop (Algorithm 3) end to end on `nprocs`
/// simulated ranks over any storage (`problem` supplies each rank's block,
/// engine and PP operator factories). The factor update is the SPD solve
/// when `nn` is null and the row-local HALS passes otherwise (parallel
/// NNCP); both use the Eq. (3) residual over the stored M(N) and Γ(N), so
/// the collective pattern is identical.
[[nodiscard]] ParResult par_cp_als(const dist::DistProblem& problem,
                                   int nprocs, const ParOptions& options,
                                   const core::DriverHooks& hooks = {},
                                   const core::NncpOptions* nn = nullptr);

}  // namespace parpp::par
