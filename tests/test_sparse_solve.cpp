// End-to-end sparse CP-ALS: sparse-vs-densified equivalence through the
// parpp::solve() facade, the no-densification fitness identity, and the
// facade's sparse dispatch rules.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "parpp/core/sparse_engine.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/dist/sparse_dist.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

solver::SolverSpec base_spec(solver::Method method, index_t rank,
                             int max_sweeps, double tol) {
  solver::SolverSpec spec;
  spec.method = method;
  spec.rank = rank;
  spec.seed = 7;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  return spec;
}

TEST(SparseSolve, AlsConvergesAndMatchesDensifiedRun) {
  // Exactly-low-rank sparse tensor: both storages run the same sweep from
  // the same init, so the converged fitness must agree to 1e-10 (and both
  // must actually recover the planted decomposition).
  const auto gen = data::make_sparse_lowrank({20, 18, 19}, 5, 0.05, 31);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();

  // tol 0 runs the full budget, so both storages saturate at the exactly
  // recoverable solution instead of stopping at a tol-dependent sweep.
  solver::SolverSpec spec = base_spec(solver::Method::kAls, 5, 80, 0.0);
  spec.engine = core::EngineKind::kSparse;
  const solver::SolveReport sparse_report = parpp::solve(csf, spec);

  spec.engine = core::EngineKind::kMsdt;
  const solver::SolveReport dense_report = parpp::solve(dense, spec);

  EXPECT_GT(sparse_report.fitness, 1.0 - 1e-8);
  EXPECT_NEAR(sparse_report.fitness, dense_report.fitness, 1e-10);
  // Same number of factor matrices with the same shapes.
  ASSERT_EQ(sparse_report.factors.size(), dense_report.factors.size());

  // The identity-based fitness never reconstructs the tensor; confirm it
  // agrees with the explicit residual of the returned factors. (Near exact
  // recovery the identity's cancellation floors its accuracy around
  // sqrt(eps) * ||T||, hence the loose absolute tolerance.)
  EXPECT_NEAR(sparse_report.residual,
              test::explicit_residual(dense, sparse_report.factors), 1e-7);
}

TEST(SparseSolve, EarlySweepFitnessTracksDensifiedBitForBit) {
  // Before round-off has a chance to accumulate, each sweep's fitness on
  // the two storages must agree far tighter than the acceptance bar.
  const auto gen = data::make_sparse_lowrank({16, 15, 14}, 4, 0.08, 3);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();

  solver::SolverSpec spec = base_spec(solver::Method::kAls, 4, 5, 1e-14);
  spec.engine = core::EngineKind::kSparse;
  const auto sparse_report = parpp::solve(csf, spec);
  spec.engine = core::EngineKind::kNaive;
  const auto dense_report = parpp::solve(dense, spec);

  ASSERT_EQ(sparse_report.history.size(), dense_report.history.size());
  for (std::size_t s = 0; s < sparse_report.history.size(); ++s) {
    EXPECT_NEAR(sparse_report.history[s].fitness,
                dense_report.history[s].fitness, 1e-11)
        << "sweep " << s;
  }
}

TEST(SparseSolve, NncpHalsConvergesOnNonnegativeSparseTensor) {
  // The generator's factors are entrywise >= 0, so NNCP can also recover.
  const auto gen = data::make_sparse_lowrank({17, 16, 15}, 4, 0.05, 91);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();

  // Equality leg: a fixed sweep budget (tol 0) keeps the two storages on
  // the same trajectory, where only MTTKRP summation order separates them
  // — a tol-based stop could fire on different sweeps and compare fitness
  // from different iterates.
  solver::SolverSpec spec = base_spec(solver::Method::kNncpHals, 4, 30, 0.0);
  spec.engine = core::EngineKind::kSparse;
  const auto sparse_report = parpp::solve(csf, spec);
  spec.engine = core::EngineKind::kMsdt;
  const auto dense_report = parpp::solve(dense, spec);
  EXPECT_NEAR(sparse_report.fitness, dense_report.fitness, 1e-10);
  for (const auto& f : sparse_report.factors)
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t j = 0; j < f.cols(); ++j) EXPECT_GE(f(i, j), 0.0);

  // Convergence leg: with a real budget, sparse HALS recovers the planted
  // nonnegative decomposition.
  solver::SolverSpec full = base_spec(solver::Method::kNncpHals, 4, 500, 1e-13);
  full.engine = core::EngineKind::kSparse;
  EXPECT_GT(parpp::solve(csf, full).fitness, 1.0 - 1e-6);
}

TEST(SparseSolve, SteadyStateSweepsNeverDensify) {
  // Allocation/workspace-counter proof that no sweep materializes a dense
  // copy: run the facade on a tensor whose dense form would need ~1.4 MB,
  // observing the thread-default workspace (the only arena a sparse
  // sequential solve can lease tensor-sized scratch from) — it must stay
  // flat across sweeps and far below the dense footprint.
  const auto gen = data::make_sparse_lowrank({56, 56, 56}, 4, 0.01, 5);
  const tensor::CsfTensor csf(gen.tensor);
  const double dense_bytes = 56.0 * 56.0 * 56.0 * sizeof(double);

  auto& ws = util::KernelWorkspace::thread_default();
  ws.trim();
  const std::size_t bytes_before = ws.total_bytes();

  solver::SolverSpec spec = base_spec(solver::Method::kAls, 4, 40, 1e-12);
  spec.engine = core::EngineKind::kSparse;
  std::size_t bytes_after_first_sweep = 0;
  int sweeps_seen = 0;
  spec.observer = [&](const core::SweepRecord&,
                      const std::vector<la::Matrix>&) {
    if (++sweeps_seen == 1) bytes_after_first_sweep = ws.total_bytes();
    // Steady state: the arena stopped growing after the first sweep.
    EXPECT_EQ(ws.total_bytes(), bytes_after_first_sweep);
    return solver::ObserverAction::kContinue;
  };
  const auto report = parpp::solve(csf, spec);

  EXPECT_GE(sweeps_seen, 2);
  EXPECT_GT(report.fitness, 0.9);
  EXPECT_LT(static_cast<double>(ws.total_bytes() - bytes_before),
            dense_bytes / 8);
}

TEST(SparseSolve, FacadeAcceptsAllSparseCellsAndRejectsDenseSparseEngine) {
  const auto gen = data::make_sparse_lowrank({8, 8, 8}, 2, 0.1, 1);
  const tensor::CsfTensor csf(gen.tensor);

  // Since the storage-agnostic parallel layer, PP methods and the
  // simulated-parallel execution run on sparse storage too.
  EXPECT_NO_THROW((void)parpp::solve(
      csf, base_spec(solver::Method::kPp, 2, 10, 1e-6)));
  EXPECT_NO_THROW((void)parpp::solve(
      csf, base_spec(solver::Method::kPpNncp, 2, 10, 1e-6)));
  solver::SolverSpec par = base_spec(solver::Method::kAls, 2, 10, 1e-6);
  par.execution = solver::Execution::simulated_parallel(4);
  EXPECT_NO_THROW((void)parpp::solve(csf, par));

  // A dense tensor still cannot run the sparse engine.
  const tensor::DenseTensor dense = gen.tensor.densify();
  solver::SolverSpec sparse_engine_spec =
      base_spec(solver::Method::kAls, 2, 10, 1e-6);
  sparse_engine_spec.engine = core::EngineKind::kSparse;
  EXPECT_THROW((void)parpp::solve(dense, sparse_engine_spec), parpp::error);
}

TEST(SparseSolve, WarmStartAndObserverComposeWithSparseSource) {
  const auto gen = data::make_sparse_lowrank({14, 13, 12}, 3, 0.08, 8);
  const tensor::CsfTensor csf(gen.tensor);

  solver::SolverSpec spec = base_spec(solver::Method::kAls, 3, 4, 1e-14);
  spec.engine = core::EngineKind::kSparse;
  const auto first = parpp::solve(csf, spec);

  // Resuming from the returned factors must continue improving (or hold)
  // rather than restart from scratch.
  solver::SolverSpec resume = spec;
  resume.initial_factors = first.factors;
  int observed = 0;
  resume.observer = [&](const core::SweepRecord& rec,
                        const std::vector<la::Matrix>&) {
    ++observed;
    EXPECT_GE(rec.fitness, first.fitness - 1e-9);
    return solver::ObserverAction::kContinue;
  };
  const auto second = parpp::solve(csf, resume);
  EXPECT_EQ(observed, second.sweeps);
  EXPECT_GE(second.fitness, first.fitness - 1e-9);
}

TEST(SparseSolve, LegacyCoreOverloadMatchesFacade) {
  const auto gen = data::make_sparse_lowrank({12, 11, 10}, 3, 0.1, 44);
  const tensor::CsfTensor csf(gen.tensor);

  // The loop at one rank, on a block rebuilt by the uniform partition,
  // against the facade's in-place view.
  solver::SolverSpec spec = base_spec(solver::Method::kAls, 3, 6, 1e-14);
  const auto facade = parpp::solve(csf, spec);
  spec.execution.grid_dims = {1, 1, 1};
  const solver::SolveReport direct = par::run_cp_als(
      *dist::make_sparse_problem(csf, dist::PartitionKind::kUniformBlocks),
      spec);
  EXPECT_EQ(direct.sweeps, facade.sweeps);
  EXPECT_DOUBLE_EQ(direct.fitness, facade.fitness);
}

}  // namespace
}  // namespace parpp
