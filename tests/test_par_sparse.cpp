// Distributed sparse CP over the mpsim grid: parallel-vs-sequential parity
// for every sparse method, the full method x execution x storage facade
// matrix, and TensorSource misuse.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

solver::SolverSpec sparse_spec(solver::Method method, index_t rank,
                               int max_sweeps, double tol) {
  solver::SolverSpec spec;
  spec.method = method;
  spec.rank = rank;
  spec.seed = 7;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  return spec;
}

constexpr tensor::CsfLayout kLayouts[] = {tensor::CsfLayout::kAllModes,
                                          tensor::CsfLayout::kHalf};

TEST(ParSparse, AlsMatchesSequentialFitnessAtEveryRankCount) {
  const auto gen = data::make_sparse_lowrank({18, 16, 17}, 4, 0.06, 31);

  // Blocks keep the caller's layout, so each layout's parallel runs are
  // held to its own 1-rank solve.
  for (tensor::CsfLayout layout : kLayouts) {
    const tensor::CsfTensor csf(gen.tensor, {layout});
    // Fixed sweep budget (tol 0) keeps all runs on the same trajectory, so
    // only collective summation order separates the fitness values.
    solver::SolverSpec spec = sparse_spec(solver::Method::kAls, 4, 12, 0.0);
    const auto seq = parpp::solve(csf, spec);

    for (int nprocs : {2, 4, 8}) {
      spec.execution = solver::Execution::simulated_parallel(nprocs);
      const auto par = parpp::solve(csf, spec);
      const std::string where = std::to_string(nprocs) + " ranks, " +
                                std::string(solver::to_string(layout));
      EXPECT_EQ(par.sweeps, seq.sweeps) << where;
      EXPECT_NEAR(par.fitness, seq.fitness, 1e-10) << where;
      // Assembled factors reconstruct the same model.
      ASSERT_EQ(par.factors.size(), seq.factors.size());
      for (std::size_t m = 0; m < par.factors.size(); ++m) {
        ASSERT_EQ(par.factors[m].rows(), seq.factors[m].rows());
        ASSERT_EQ(par.factors[m].cols(), seq.factors[m].cols());
      }
    }
  }
}

TEST(ParSparse, NncpMatchesSequentialFitness) {
  const auto gen = data::make_sparse_lowrank({14, 15, 13}, 3, 0.08, 13);

  for (tensor::CsfLayout layout : kLayouts) {
    const tensor::CsfTensor csf(gen.tensor, {layout});
    // 6 sweeps stays inside the regime where the trajectories are
    // identical; past that the HALS projection boundary chaotically
    // amplifies summation round-off (the same reason the dense parity tests
    // cap their budgets).
    solver::SolverSpec spec = sparse_spec(solver::Method::kNncpHals, 3, 6, 0.0);
    const auto seq = parpp::solve(csf, spec);
    for (int nprocs : {2, 4, 8}) {
      spec.execution = solver::Execution::simulated_parallel(nprocs);
      const auto par = parpp::solve(csf, spec);
      EXPECT_NEAR(par.fitness, seq.fitness, 1e-10)
          << nprocs << " ranks, " << solver::to_string(layout);
    }
  }
}

TEST(ParSparse, PpMatchesSequentialFitness) {
  const auto gen = data::make_sparse_lowrank({16, 14, 15}, 4, 0.08, 29);
  const tensor::CsfTensor csf(gen.tensor);

  solver::SolverSpec spec = sparse_spec(solver::Method::kPp, 4, 14, 0.0);
  const auto seq = parpp::solve(csf, spec);
  EXPECT_GT(seq.num_pp_approx, 0)
      << "the PP phase never activated — the comparison is vacuous";

  for (int nprocs : {2, 4, 8}) {
    spec.execution = solver::Execution::simulated_parallel(nprocs);
    const auto par = parpp::solve(csf, spec);
    EXPECT_EQ(par.num_pp_init, seq.num_pp_init) << nprocs << " ranks";
    EXPECT_EQ(par.num_pp_approx, seq.num_pp_approx) << nprocs << " ranks";
    EXPECT_NEAR(par.fitness, seq.fitness, 1e-10) << nprocs << " ranks";
  }
}

TEST(ParSparse, PpNncpConvergesInParallel) {
  const auto gen = data::make_sparse_lowrank({14, 13, 12}, 3, 0.08, 3);
  const tensor::CsfTensor csf(gen.tensor);

  solver::SolverSpec spec =
      sparse_spec(solver::Method::kPpNncp, 3, 300, 1e-9);
  spec.execution = solver::Execution::simulated_parallel(4);
  const auto par = parpp::solve(csf, spec);
  EXPECT_GT(par.fitness, 0.9);
  for (const auto& f : par.factors)
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t j = 0; j < f.cols(); ++j) EXPECT_GE(f(i, j), 0.0);
}

TEST(ParSparse, ParallelRunsReportCommunicationCosts) {
  const auto gen = data::make_sparse_lowrank({12, 12, 12}, 3, 0.08, 99);
  const tensor::CsfTensor csf(gen.tensor);

  solver::SolverSpec spec = sparse_spec(solver::Method::kAls, 3, 5, 0.0);
  spec.execution = solver::Execution::simulated_parallel(4);
  const auto report = parpp::solve(csf, spec);
  EXPECT_GT(report.comm_cost.total().messages, 0.0);
}

TEST(SolverFacade, EveryCellRunsOrReportsStructuredError) {
  // The complete method x execution x storage matrix must either solve or
  // throw parpp::error — never crash or throw anything else. After this
  // PR all sixteen cells actually run.
  const auto gen = data::make_sparse_lowrank({10, 9, 8}, 2, 0.1, 17);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();

  int ran = 0;
  for (const solver::MethodEntry& entry : solver::registered_methods()) {
    for (const bool parallel : {false, true}) {
      for (const bool sparse : {false, true}) {
        solver::SolverSpec spec = sparse_spec(entry.method, 2, 4, 1e-6);
        if (parallel) spec.execution = solver::Execution::simulated_parallel(4);
        const solver::TensorSource source =
            sparse ? solver::TensorSource(csf) : solver::TensorSource(dense);
        try {
          const auto report = parpp::solve(source, spec);
          EXPECT_GE(report.fitness, 0.0);
          EXPECT_LE(report.fitness, 1.0 + 1e-12);
          ++ran;
        } catch (const parpp::error&) {
          // A structured gap report is acceptable; anything else escapes
          // and fails the test.
        }
      }
    }
  }
  EXPECT_EQ(ran, 16) << "some registered cells no longer run";
}

TEST(TensorSource, MisuseTripsStructuredChecks) {
  const auto gen = data::make_sparse_lowrank({6, 6, 6}, 2, 0.2, 1);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();

  const solver::TensorSource sparse_source(csf);
  EXPECT_TRUE(sparse_source.is_sparse());
  EXPECT_THROW((void)sparse_source.dense(), parpp::error);
  EXPECT_NO_THROW((void)sparse_source.sparse());

  const solver::TensorSource dense_source(dense);
  EXPECT_FALSE(dense_source.is_sparse());
  EXPECT_THROW((void)dense_source.sparse(), parpp::error);
  EXPECT_NO_THROW((void)dense_source.dense());
}

}  // namespace
}  // namespace parpp
