// Per-rank state of parallel CP-ALS (Algorithm 3) over the mpsim runtime:
// the block, the distributed factors and the factor update (the normal-
// equations solve or HALS) that the sweep loop (par::run_cp_als in
// par_pp.hpp) drives on every rank.
#pragma once

#include <memory>
#include <vector>

#include "parpp/core/cp_als.hpp"
#include "parpp/dist/dist_tensor.hpp"
#include "parpp/dist/factor_dist.hpp"
#include "parpp/dist/local_problem.hpp"
#include "parpp/la/spd_solve.hpp"
#include "parpp/mpsim/fault.hpp"
#include "parpp/mpsim/runtime.hpp"
#include "parpp/util/timer.hpp"

namespace parpp::solver {
struct SolverSpec;
}  // namespace parpp::solver

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

/// What a solve starts from besides its spec: the stopping-rule state and
/// sweep count of a loaded checkpoint, and the clock of the time budget
/// (StoppingRule::max_seconds), which runs from the moment the solve was
/// entered.
struct SolveStart {
  double fitness = 0.0;
  double prev_fitness = -1.0;
  int sweep_offset = 0;  ///< sweeps the loaded checkpoint already holds
  WallTimer budget;
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

/// Per-rank state of Algorithm 3, shared by the sweep loop (every method,
/// PLANC-style solve included) and the PP kernel timers. Constructed inside
/// a rank body.
class ParCpContext {
 public:
  /// `problem` must outlive the context. The spec supplies the rank, seed,
  /// engine and solve mode; `grid_dims` (product = comm.size()) is the
  /// processor grid. `initial_factors`, when non-null, replaces the seeded
  /// deterministic initialization with a (validated) global warm start;
  /// every rank keeps its own block of the same matrices.
  ParCpContext(mpsim::Comm& comm, const dist::DistProblem& problem,
               const solver::SolverSpec& spec,
               const std::vector<int>& grid_dims,
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
  /// `mode` — the tail of a factor update once a PP phase has assembled
  /// ~M(n) (Algorithm 4 lines 9-15).
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
  SolveMode solve_mode_;
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

}  // namespace parpp::par
