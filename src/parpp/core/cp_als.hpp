// Sweep records, health verdicts and the seeded factor initialization every
// rank reproduces — the pieces of a CP-ALS solve (Algorithms 1-4, run by
// the one sweep loop par::run_cp_als) that sit below the parallel layer.
#pragma once

#include <string>
#include <vector>

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::core {

struct SweepRecord {
  double seconds;       ///< elapsed wall time since the run started
  double fitness;       ///< 1 - relative residual (approximate in PP sweeps)
  std::string phase;    ///< "als", "nncp", "pp-init" or "pp-approx"
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

/// Uniform-[0,1) factor initialization (Algorithm 1 line 2), deterministic
/// in (seed, mode).
[[nodiscard]] std::vector<la::Matrix> init_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed);

/// The warm-start factors `initial` (validated against `shape`/`rank`) or,
/// when null, the seeded initialization above.
[[nodiscard]] std::vector<la::Matrix> resolve_init_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed,
    const std::vector<la::Matrix>* initial);

}  // namespace parpp::core
