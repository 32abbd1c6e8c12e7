// Options, sweep records, health verdicts and per-sweep hooks shared by the
// sweep loops (Algorithms 1-4 run as par::par_cp_als / par::par_pp_cp_als),
// plus the seeded factor initialization every rank reproduces.
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
  /// Rank 0 evaluates it and the verdict is broadcast so all ranks agree.
  /// A 1-rank run passes the factors; with more ranks the factor vector is
  /// empty (factors live distributed). Returning false aborts the run
  /// after the current sweep.
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

}  // namespace parpp::core
