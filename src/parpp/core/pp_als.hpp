// Sequential PP-CP-ALS driver (Algorithm 2).
#pragma once

#include "parpp/core/cp_als.hpp"

namespace parpp::core {

struct PpOptions {
  /// PP tolerance epsilon: the approximated step runs while every factor's
  /// relative change since the snapshot stays below it.
  double pp_tol = 0.1;
  /// Record (approximate) fitness after each PP-approximated sweep too.
  bool record_pp_sweeps = true;
  /// Disable the second-order V(n) correction (ablation).
  bool second_order = true;
  /// Cap on consecutive PP-approximated sweeps inside one PP phase,
  /// guarding against a stalled inner loop (generous by default).
  int max_pp_sweeps_per_phase = 500;
};

/// Runs the PP sweep loop (Algorithm 2): regular sweeps until the factors
/// move slowly, then PP initialization + approximated sweeps, falling back
/// to regular sweeps whenever the perturbation grows past pp_tol. The
/// PP-phase trigger, divergence guard, stopping comparison and final exact
/// residual do not depend on the factor update, so `update` is a parameter
/// (als_update, or nncp_update for PP-NNCP) and `regular_phase` labels the
/// exact sweeps in the history ("als"/"nncp"). PP approximates the MTTKRP
/// and never looks at how the update consumes it; HALS consumes one MTTKRP
/// per mode like the solve, its max(0, ·) projection keeps the factors
/// feasible whatever the approximation error, and pp_tol and the trust
/// guard bound that error as for ALS. The regular sweeps use
/// options.engine; `problem` must provide make_pp_operators (the sparse
/// path builds its operators with CSF pair walks and never densifies).
[[nodiscard]] CpResult pp_cp_als(const TensorProblem& problem,
                                 const CpOptions& options,
                                 const PpOptions& pp_options,
                                 const DriverHooks& hooks = {},
                                 const FactorUpdate& update = als_update(),
                                 const char* regular_phase = "als");

}  // namespace parpp::core
