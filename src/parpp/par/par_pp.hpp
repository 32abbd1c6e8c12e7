// The sweep loop of every method: CP-ALS with communication-efficient
// parallel pairwise perturbation (Algorithm 2 with the Algorithm 4
// subroutine). With PP never eligible (als, nncp) it is plain Algorithm 1 /
// Algorithm 3.
//
// The PP operators are built from each rank's *local* tensor block with the
// locally replicated slice factors — no communication at all in the
// initialization step beyond what the preceding regular sweep already did.
// In the approximated step the first-order corrections U(n,i) are likewise
// local; the only collectives per factor update are the single
// Reduce-Scatter of ~M(n), the R^2 Gram All-Reduce, the slice All-Gather
// (identical to Algorithm 3) and one small All-Reduce for dS(i).
#pragma once

#include <functional>
#include <memory>

#include "parpp/par/par_cp_als.hpp"

namespace parpp::solver {
struct SolveReport;
}  // namespace parpp::solver

namespace parpp::par {

/// Runs the sweep loop end to end on spec.execution.nprocs simulated ranks
/// over any storage (`problem` supplies each rank's block, engine and PP
/// operator factories: dense slabs or sparse CSF blocks). Reads the
/// resolved spec parpp::solve() makes: execution.grid_dims set and the
/// engine promoted for PP. Regular sweeps use spec.engine; for pp and
/// pp-nncp, once the factors move slowly, PP initialization + approximated
/// sweeps run, falling back to regular sweeps whenever the perturbation
/// grows past pp.pp_tol (PP needs order >= 3 and pp_tol in (0, 1), which
/// solve() checks before any rank starts). For als and nncp none of the PP
/// bookkeeping runs: no operators, no drift All-Reduce, no final residual
/// measurement. The factor update is the SPD solve, or the row-local HALS
/// passes for nncp and pp-nncp: PP approximates the MTTKRP and never looks
/// at how the update consumes it, HALS consumes one MTTKRP per mode like
/// the solve, its max(0, ·) projection keeps the factors feasible whatever
/// the approximation error, and pp_tol and the trust guard bound that error
/// as for ALS. The loop also applies the time budget, the predicate, the
/// observer and checkpointing, and fills the whole report.
[[nodiscard]] solver::SolveReport run_cp_als(const dist::DistProblem& problem,
                                             const solver::SolverSpec& spec,
                                             const SolveStart& start = {});

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

/// Times this module's PP kernels on a dense tensor over
/// spec.execution.nprocs ranks of spec.execution.grid_dims, with spec.rank,
/// seed and engine.
[[nodiscard]] PpKernelTimings time_pp_kernels(
    const tensor::DenseTensor& global_t, const solver::SolverSpec& spec,
    int sweeps);

/// One rank's PP kernels as the timing harness drives them.
class PpKernels {
 public:
  virtual ~PpKernels() = default;
  virtual void build() = 0;
  virtual void approx_sweep() = 0;
};

/// The timing harness of time_pp_kernels and time_ref_pp_kernels: on every
/// rank, one regular sweep warms the engine, `make` builds the kernels,
/// then the build and `sweeps` approximated sweeps are timed; the report
/// takes the slowest rank's times and rank 0's profiles.
[[nodiscard]] PpKernelTimings time_kernels(
    const tensor::DenseTensor& global_t, const solver::SolverSpec& spec,
    int sweeps,
    const std::function<std::unique_ptr<PpKernels>(mpsim::Comm&,
                                                   ParCpContext&)>& make);

}  // namespace parpp::par
