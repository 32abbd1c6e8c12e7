// Communication-efficient parallel pairwise perturbation (Algorithm 4).
//
// The PP operators are built from each rank's *local* tensor block with the
// locally replicated slice factors — no communication at all in the
// initialization step beyond what the preceding regular sweep already did.
// In the approximated step the first-order corrections U(n,i) are likewise
// local; the only collectives per factor update are the single
// Reduce-Scatter of ~M(n), the R^2 Gram All-Reduce, the slice All-Gather
// (identical to Algorithm 3) and one small All-Reduce for dS(i).
#pragma once

#include "parpp/core/pp_als.hpp"
#include "parpp/par/par_cp_als.hpp"

namespace parpp::par {

/// Runs the PP sweep loop (Algorithm 2 with the Algorithm 4 subroutine)
/// on `nprocs` simulated ranks over any storage: dense slabs or sparse CSF
/// blocks (sparse PP operators, identical collective pattern): regular
/// sweeps until the factors move slowly, then PP initialization +
/// approximated sweeps, falling back to regular sweeps whenever the
/// perturbation grows past pp.pp_tol. The regular sweeps use
/// options.base.engine. The factor update is the SPD solve when `nn` is
/// null and the row-local HALS passes otherwise (PP-NNCP): PP approximates
/// the MTTKRP and never looks at how the update consumes it, HALS consumes
/// one MTTKRP per mode like the solve, its max(0, ·) projection keeps the
/// factors feasible whatever the approximation error, and pp_tol and the
/// trust guard bound that error as for ALS. Expects order >= 3 and pp_tol
/// in (0, 1); parpp::solve() checks both before any rank starts.
[[nodiscard]] ParResult par_pp_cp_als(const dist::DistProblem& problem,
                                      int nprocs, const ParOptions& options,
                                      const core::PpOptions& pp,
                                      const core::DriverHooks& hooks = {},
                                      const core::NncpOptions* nn = nullptr);

/// Benchmark hook: runs `sweeps` PP-approximated sweeps (after one build)
/// regardless of the tolerance, returning per-sweep profiles and costs —
/// used by the Fig. 3 / Table II per-sweep timing benches.
struct PpKernelTimings {
  double init_seconds = 0.0;          ///< PP initialization wall time
  double approx_sweep_seconds = 0.0;  ///< mean approximated-sweep wall time
  Profile init_profile;
  Profile approx_profile;             ///< summed over the timed sweeps
  mpsim::CostCounter comm_cost;
};
[[nodiscard]] PpKernelTimings time_pp_kernels(
    const tensor::DenseTensor& global_t, int nprocs, const ParOptions& options,
    int sweeps);

}  // namespace parpp::par
