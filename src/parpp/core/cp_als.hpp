// Sequential CP-ALS driver (Algorithm 1).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::core {

struct CpOptions {
  index_t rank = 16;
  int max_sweeps = 300;
  /// Stop when |fitness(t) - fitness(t-1)| < tol (paper's stopping
  /// criterion Delta on the relative residual).
  double tol = 1e-5;
  std::uint64_t seed = 42;
  EngineKind engine = EngineKind::kDt;
  EngineOptions engine_options = {};
  /// Record (time, fitness, phase) after every sweep.
  bool record_history = true;
};

struct SweepRecord {
  double seconds;       ///< elapsed wall time since the run started
  double fitness;       ///< 1 - relative residual (approximate in PP sweeps)
  std::string phase;    ///< "als", "pp-init" or "pp-approx"
};

/// Health verdict of a completed solve. Anything but kOk means the
/// recovery_log has at least one event explaining what happened.
enum class SolveStatus {
  kOk,               ///< clean run, no guardrail fired
  kRecovered,        ///< guardrails fired but the run completed
  kRecoveredShrunk,  ///< ranks were lost; the run finished on the survivors
  kNumericalAbort,   ///< non-finite state persisted past the rollback budget
  kCommAbort,        ///< a communicator failure ended the run
};

/// One guardrail / fault event, ordered by sweep. The messages are
/// deterministic (no wall-clock content) so same-seed reruns produce
/// bitwise-identical logs.
struct RecoveryEvent {
  int sweep = 0;        ///< total sweep count when the event fired
  std::string what;
};

struct CpResult {
  std::vector<la::Matrix> factors;
  double residual = 1.0;
  double fitness = 0.0;
  int sweeps = 0;  ///< total sweeps of any kind
  std::vector<SweepRecord> history;
  Profile profile;

  // PP statistics (zero for plain ALS): counts match Tables III/IV.
  int num_als_sweeps = 0;
  int num_pp_init = 0;
  int num_pp_approx = 0;

  // Resilience outcome (kOk + empty log on the legacy happy path).
  SolveStatus status = SolveStatus::kOk;
  std::vector<RecoveryEvent> recovery_log;
};

/// Cross-cutting extension points the parpp::solve() facade threads through
/// every driver. Default-constructed hooks leave a driver bit-for-bit on its
/// legacy behavior (no extra collectives, no extra callbacks).
struct DriverHooks {
  /// Warm start: used in place of the seeded initialization when non-null.
  /// Shapes are validated against the tensor and rank. The matrices are
  /// copied, so the caller's set is untouched.
  const std::vector<la::Matrix>* initial_factors = nullptr;
  /// Called after every sweep of any kind ("als", "nncp", "pp-init",
  /// "pp-approx") with the record just produced and the current factors.
  /// The simulated-parallel drivers pass an empty factor vector (factors
  /// live distributed) and broadcast the verdict so all ranks agree.
  /// Returning false aborts the run after the current sweep.
  std::function<bool(const SweepRecord&, const std::vector<la::Matrix>&)>
      on_sweep;

  /// Checkpointing: when checkpoint_every > 0 and on_checkpoint is set, the
  /// drivers call it after every checkpoint_every-th sweep with the current
  /// global factors and stopping-rule state. The parallel drivers assemble
  /// the factors collectively and invoke the callback on rank 0 only. The
  /// PP drivers checkpoint after regular (exact) sweeps only, so the saved
  /// factors are never mid-approximation.
  int checkpoint_every = 0;
  std::function<void(const std::vector<la::Matrix>& factors, int sweep,
                     double fitness, double prev_fitness)>
      on_checkpoint;

  /// Resume support: when set (alongside initial_factors carrying the
  /// checkpointed factors), the drivers seed their stopping comparison from
  /// the checkpointed (fitness, prev_fitness) pair instead of (0, -1), so a
  /// resumed run takes exactly the sweeps the uninterrupted run would have.
  struct ResumeState {
    double fitness = 0.0;
    double prev_fitness = -1.0;
  };
  const ResumeState* resume = nullptr;
};

/// Uniform-[0,1) factor initialization (Algorithm 1 line 2), deterministic
/// in (seed, mode).
[[nodiscard]] std::vector<la::Matrix> init_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed);

/// The warm-start factors from `hooks` (validated against `shape`/`rank`)
/// or, when absent, the seeded initialization above.
[[nodiscard]] std::vector<la::Matrix> resolve_init_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed,
    const DriverHooks& hooks);

/// One factor update inside a sweep loop: overwrite `a` given Γ and the
/// (exact or PP-approximated) MTTKRP `m`. The plain and PP loops take it as
/// a parameter, so the normal-equations solve and the nonnegative HALS
/// passes (core::nncp_update) share one loop each.
using FactorUpdate = std::function<void(
    la::Matrix& a, const la::Matrix& gamma, const la::Matrix& m,
    Profile& profile)>;

/// The ALS update A <- M Γ† (Algorithm 1 line 8).
[[nodiscard]] FactorUpdate als_update();

/// Runs the plain sweep loop (Algorithm 1) with the selected MTTKRP engine
/// until the fitness change falls below `tol` or `max_sweeps` is reached.
/// `update` is the factor update and `phase` labels the sweeps in the
/// history ("als", or "nncp" with the HALS update). The loop sees only the
/// storage-agnostic TensorProblem, so dense and sparse storage run the
/// identical sweep (including the Eq. (3) residual, which reuses the last
/// MTTKRP and never reconstructs the tensor).
[[nodiscard]] CpResult cp_als(const TensorProblem& problem,
                              const CpOptions& options,
                              const DriverHooks& hooks = {},
                              const FactorUpdate& update = als_update(),
                              const char* phase = "als");

}  // namespace parpp::core
