#include "parpp/solver/solve.hpp"

#include <cmath>
#include <fstream>
#include <memory>
#include <utility>

#include "parpp/dist/sparse_dist.hpp"
#include "parpp/mpsim/grid.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/util/serialize.hpp"

namespace parpp {

solver::SolveReport solve(const solver::TensorSource& t,
                          const solver::SolverSpec& spec) {
  par::SolveStart start;  // the time budget runs from here
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
  // instead of a NaN cascade deep in the loop.
  const double squared_norm =
      t.is_sparse() ? t.sparse().squared_norm() : t.dense().squared_norm();
  const double tensor_norm = std::sqrt(squared_norm);
  PARPP_CHECK(std::isfinite(tensor_norm),
              "solve: tensor has a non-finite Frobenius norm");
  PARPP_CHECK(tensor_norm > 0.0,
              "solve: tensor is identically zero (Frobenius norm 0); CP "
              "fitness is undefined for a zero tensor");
  const int order = t.is_sparse() ? t.sparse().order() : t.dense().order();
  if (solver::uses_pp(spec.method)) {
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

  // `eff` is the resolved spec the sweep loop reads. Resume: if the
  // checkpoint file exists, warm-start from it and spend only the
  // remaining sweep budget; if it does not (the previous run died before
  // its first checkpoint) fall through to a cold start.
  solver::SolverSpec eff = spec;
  if (spec.checkpoint.resume &&
      std::ifstream(spec.checkpoint.path, std::ios::binary).good()) {
    io::CheckpointState ck = io::load_checkpoint_file(spec.checkpoint.path);
    if (ck.sweep >= spec.stopping.max_sweeps) {
      // The checkpoint already covers the whole budget; nothing to run.
      solver::SolveReport done;
      done.factors = std::move(ck.factors);
      done.residual = ck.residual;
      done.fitness = ck.fitness;
      done.sweeps = ck.sweep;
      done.num_als_sweeps = ck.sweep;
      done.stop_reason =
          spec.stopping.fitness_tol > 0.0 &&
                  std::abs(ck.fitness - ck.prev_fitness) <
                      spec.stopping.fitness_tol
              ? solver::StopReason::kConverged
              : solver::StopReason::kMaxSweeps;
      return done;
    }
    start.sweep_offset = ck.sweep;
    start.fitness = ck.fitness;
    start.prev_fitness = ck.prev_fitness;
    eff.stopping.max_sweeps = spec.stopping.max_sweeps - ck.sweep;
    eff.initial_factors = std::move(ck.factors);
  }
  // The PP methods need a tree engine for their operator-build
  // amortization: the one place kNaive is promoted.
  if (solver::uses_pp(spec.method) && eff.engine == core::EngineKind::kNaive)
    eff.engine = core::EngineKind::kMsdt;
  if (eff.execution.grid_dims.empty())
    eff.execution.grid_dims =
        mpsim::ProcessorGrid::balanced_dims(eff.execution.nprocs, order);

  // The one storage dispatch: the source becomes a problem the sweep loop
  // consumes without seeing the storage class. One rank views the caller's
  // tensor; more ranks carve it over the grid, sparse nonzeros with the
  // requested partition.
  std::unique_ptr<dist::DistProblem> problem;
  if (!eff.execution.is_parallel()) {
    if (t.is_sparse())
      problem = std::make_unique<dist::WholeTensorProblem<tensor::CsfTensor>>(
          t.sparse(), squared_norm);
    else
      problem =
          std::make_unique<dist::WholeTensorProblem<tensor::DenseTensor>>(
              t.dense(), squared_norm);
  } else if (t.is_sparse()) {
    problem = dist::make_sparse_problem(t.sparse(), eff.execution.partition);
  } else {
    problem = std::make_unique<dist::DenseBlockProblem>(t.dense());
  }
  return par::run_cp_als(*problem, eff, start);
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
