#include "parpp/solver/solve.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <utility>

#include "parpp/dist/sparse_dist.hpp"
#include "parpp/solver/registry.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/serialize.hpp"
#include "parpp/util/timer.hpp"

namespace parpp {

namespace {

using solver::SolveReport;
using solver::SolverSpec;
using solver::StopReason;

SolveReport from_par_result(par::ParResult&& r) {
  SolveReport report;
  report.factors = std::move(r.factors);
  report.residual = r.residual;
  report.fitness = r.fitness;
  report.sweeps = r.sweeps;
  report.history = std::move(r.history);
  report.num_als_sweeps = r.num_als_sweeps;
  report.num_pp_init = r.num_pp_init;
  report.num_pp_approx = r.num_pp_approx;
  report.status = r.status;
  report.recovery_log = std::move(r.recovery_log);
  report.comm_cost = r.comm_cost;
  report.mean_sweep_seconds = r.mean_sweep_seconds;
  report.sweep_profiles = std::move(r.sweep_profiles);
  report.critical_path_profile = r.critical_path_profile;
  report.nnz_imbalance = r.nnz_imbalance;
  report.final_ranks = r.final_ranks;
  report.post_shrink_nnz_imbalance = r.post_shrink_nnz_imbalance;
  // The sweep loops report per-sweep slices of the slowest rank; their sum
  // is the solve's profile.
  for (const Profile& p : report.sweep_profiles) report.profile.accumulate(p);
  return report;
}

[[nodiscard]] bool aborted_status(core::SolveStatus s) {
  return s == core::SolveStatus::kNumericalAbort ||
         s == core::SolveStatus::kCommAbort;
}

}  // namespace

solver::SolveReport solve(const solver::TensorSource& t,
                          const solver::SolverSpec& spec) {
  PARPP_CHECK(spec.rank >= 1, "solve: rank must be positive");
  PARPP_CHECK(spec.execution.nprocs >= 1,
              "solve: execution.nprocs must be >= 1");
  PARPP_CHECK(spec.stopping.max_sweeps >= 1,
              "solve: stopping.max_sweeps must be >= 1");
  PARPP_CHECK(!spec.execution.fault.active() || spec.execution.is_parallel(),
              "solve: execution.fault injects communication faults, which "
              "need a parallel execution (nprocs > 1)");
  PARPP_CHECK(!spec.checkpoint.resume || !spec.checkpoint.path.empty(),
              "solve: checkpoint.resume needs checkpoint.path");

  // A zero tensor has no direction to fit: the fitness 1 - |T - X| / |T|
  // divides by its norm, so reject it up front with a structured error
  // instead of a NaN cascade deep in a driver.
  const double tensor_norm =
      t.is_sparse() ? t.sparse().frobenius_norm() : t.dense().frobenius_norm();
  PARPP_CHECK(std::isfinite(tensor_norm),
              "solve: tensor has a non-finite Frobenius norm");
  PARPP_CHECK(tensor_norm > 0.0,
              "solve: tensor is identically zero (Frobenius norm 0); CP "
              "fitness is undefined for a zero tensor");
  if (spec.method == solver::Method::kPp ||
      spec.method == solver::Method::kPpNncp) {
    const int order =
        t.is_sparse() ? t.sparse().order() : t.dense().order();
    PARPP_CHECK(order >= 3, "solve: pairwise perturbation needs tensor order "
                            ">= 3");
    PARPP_CHECK(!t.is_sparse() ||
                    t.sparse().layout() == tensor::CsfLayout::kAllModes,
                "solve: pairwise perturbation on sparse storage needs "
                "CsfLayout::kAllModes (the pair operators walk a root tree "
                "per mode)");
    PARPP_CHECK(spec.pp.pp_tol > 0.0 && spec.pp.pp_tol < 1.0,
                "solve: pp.pp_tol must be in (0, 1)");
  }

  const solver::MethodEntry& entry = solver::method_entry(spec.method);

  // Resume: if the checkpoint file exists, warm-start from it and spend
  // only the remaining sweep budget; if it does not (the previous run died
  // before its first checkpoint) fall through to a cold start. `eff` is the
  // spec the drivers actually see.
  SolverSpec eff = spec;
  int base_sweeps = 0;
  core::DriverHooks hooks;
  core::DriverHooks::ResumeState resume_state;
  if (spec.checkpoint.resume &&
      std::ifstream(spec.checkpoint.path, std::ios::binary).good()) {
    io::CheckpointState ck = io::load_checkpoint_file(spec.checkpoint.path);
    if (ck.sweep >= spec.stopping.max_sweeps) {
      // The checkpoint already covers the whole budget; nothing to run.
      SolveReport done;
      done.factors = std::move(ck.factors);
      done.residual = ck.residual;
      done.fitness = ck.fitness;
      done.sweeps = ck.sweep;
      done.num_als_sweeps = ck.sweep;
      done.stop_reason =
          spec.stopping.fitness_tol > 0.0 &&
                  std::abs(ck.fitness - ck.prev_fitness) <
                      spec.stopping.fitness_tol
              ? StopReason::kConverged
              : StopReason::kMaxSweeps;
      return done;
    }
    base_sweeps = ck.sweep;
    eff.stopping.max_sweeps = spec.stopping.max_sweeps - ck.sweep;
    eff.initial_factors = std::move(ck.factors);
    resume_state.fitness = ck.fitness;
    resume_state.prev_fitness = ck.prev_fitness;
    hooks.resume = &resume_state;
  }
  if (!eff.initial_factors.empty())
    hooks.initial_factors = &eff.initial_factors;

  if (spec.checkpoint.saving()) {
    hooks.checkpoint_every = spec.checkpoint.every;
    hooks.on_checkpoint = [&](const std::vector<la::Matrix>& factors,
                              int sweep, double fitness,
                              double prev_fitness) {
      io::CheckpointState ck;
      ck.factors = factors;
      ck.sweep = base_sweeps + sweep;
      ck.fitness = fitness;
      ck.prev_fitness = prev_fitness;
      ck.residual = 1.0 - fitness;
      ck.seed = spec.seed;
      ck.rng_state = Rng(spec.seed).state();
      ck.written_ranks = spec.execution.nprocs;
      io::save_checkpoint_file(spec.checkpoint.path, ck);
    };
  }

  // One driver hook folds the facade-level stopping criteria and the
  // observer; when none is active the drivers run their legacy path with
  // zero callbacks (and, in parallel, zero extra collectives).
  StopReason abort_reason = StopReason::kConverged;
  bool aborted = false;
  WallTimer budget_timer;
  const bool needs_hook = spec.stopping.max_seconds > 0.0 ||
                          static_cast<bool>(spec.stopping.predicate) ||
                          static_cast<bool>(spec.observer);
  if (needs_hook) {
    hooks.on_sweep = [&](const core::SweepRecord& rec,
                         const std::vector<la::Matrix>& factors) {
      if (spec.stopping.max_seconds > 0.0 &&
          budget_timer.seconds() >= spec.stopping.max_seconds) {
        abort_reason = StopReason::kTimeBudget;
        aborted = true;
      } else if (spec.stopping.predicate && spec.stopping.predicate(rec)) {
        abort_reason = StopReason::kPredicate;
        aborted = true;
      } else if (spec.observer &&
                 spec.observer(rec, factors) ==
                     solver::ObserverAction::kStop) {
        abort_reason = StopReason::kObserver;
        aborted = true;
      }
      return !aborted;
    };
  }

  // The one storage dispatch: the source becomes a problem the sweep loops
  // consume without seeing the storage class. One rank views the caller's
  // tensor; more ranks carve it over the grid, sparse nonzeros with the
  // requested partition.
  std::unique_ptr<dist::DistProblem> problem;
  if (!eff.execution.is_parallel()) {
    if (t.is_sparse())
      problem = std::make_unique<dist::WholeTensorProblem<tensor::CsfTensor>>(
          t.sparse());
    else
      problem =
          std::make_unique<dist::WholeTensorProblem<tensor::DenseTensor>>(
              t.dense());
  } else if (t.is_sparse()) {
    problem = dist::make_sparse_problem(t.sparse(), eff.execution.partition);
  } else {
    problem = std::make_unique<dist::DenseBlockProblem>(t.dense());
  }
  SolveReport report = from_par_result(entry.run(*problem, eff, hooks));

  if (aborted_status(report.status)) {
    // A guardrail or communicator failure ended the run; the recovery log
    // carries the why, and the stop reason points the caller at it.
    report.stop_reason = StopReason::kFault;
  } else if (aborted) {
    report.stop_reason = abort_reason;
  } else if (report.sweeps < eff.stopping.max_sweeps) {
    report.stop_reason = StopReason::kConverged;
  } else {
    // The sweep budget was exhausted, but the run may have converged on
    // exactly the final permitted sweep: the drivers' criterion compares
    // the last two sweeps' fitness, which the history preserves.
    const std::size_t h = report.history.size();
    const bool converged_on_last =
        spec.stopping.fitness_tol > 0.0 && h >= 2 &&
        std::abs(report.history[h - 1].fitness -
                 report.history[h - 2].fitness) < spec.stopping.fitness_tol;
    report.stop_reason = converged_on_last ? StopReason::kConverged
                                           : StopReason::kMaxSweeps;
  }
  // A resumed run reports the cumulative sweep count, so resumed and
  // uninterrupted runs with the same budget report the same totals.
  report.sweeps += base_sweeps;
  report.num_als_sweeps += base_sweeps;
  return report;
}

solver::SolveReport solve(const tensor::DenseTensor& t,
                          const solver::SolverSpec& spec) {
  return solve(solver::TensorSource(t), spec);
}

solver::SolveReport solve(const tensor::CsfTensor& t,
                          const solver::SolverSpec& spec) {
  return solve(solver::TensorSource(t), spec);
}

}  // namespace parpp
