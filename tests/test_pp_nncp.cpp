// PP-accelerated nonnegative HALS: the new PP x NNCP cell of the solver
// matrix (sequential + parallel drivers).
#include <gtest/gtest.h>

#include <cmath>

#include "parpp/data/collinearity.hpp"
#include "parpp/solver/solve.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

// PP-NNCP runs its regular sweeps on MSDT unless a test picks another one.
solver::SolverSpec pp_nncp_spec(index_t rank, int max_sweeps, double tol) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kPpNncp;
  spec.rank = rank;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  return spec;
}

TEST(PpNncp, RecoversNonnegativeLowRank) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 1601);
  solver::SolverSpec spec = pp_nncp_spec(3, 200, 1e-9);
  spec.pp.pp_tol = 0.3;
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_GT(r.fitness, 0.99);
}

TEST(PpNncp, FactorsStayNonnegative) {
  // Even PP-approximated MTTKRPs feed through the projected HALS update,
  // so feasibility survives the approximation.
  const auto t = test::random_tensor({8, 7, 6}, 1602);
  solver::SolverSpec spec = pp_nncp_spec(4, 60, 0.0);
  spec.pp.pp_tol = 0.5;
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_GT(r.num_pp_approx, 0) << "PP must engage for this test to bite";
  for (const auto& a : r.factors) {
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), 0.0);
  }
}

TEST(PpNncp, UsesPpSweepsOnCollinearityAtEqualFitness) {
  // Acceptance criterion: on the collinearity dataset PP-NNCP reaches the
  // same final fitness as plain NNCP-HALS (within 1e-3) with fewer regular
  // sweeps — the PP-approximated sweeps replace them.
  const auto gen =
      data::make_collinear_tensor({20, 20, 20}, 8, 0.5, 0.9, 1603, 1e-3);
  solver::SolverSpec spec = pp_nncp_spec(8, 300, 1e-5);
  spec.pp.pp_tol = 0.2;
  const solver::SolveReport accel = parpp::solve(gen.tensor, spec);
  spec.method = solver::Method::kNncpHals;
  const solver::SolveReport plain = parpp::solve(gen.tensor, spec);
  EXPECT_NEAR(accel.fitness, plain.fitness, 1e-3);
  EXPECT_GT(accel.num_pp_approx, 0);
  EXPECT_LT(accel.num_als_sweeps, plain.num_als_sweeps)
      << "PP must replace regular sweeps, not add to them";
}

TEST(PpNncp, ResidualMatchesExplicit) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 1604);
  const solver::SolverSpec spec = pp_nncp_spec(2, 80, 1e-8);
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_NEAR(test::explicit_residual(t, r.factors), r.residual, 1e-6);
}

TEST(PpNncp, ParallelMatchesSequentialFitness) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 1605);
  solver::SolverSpec spec = pp_nncp_spec(3, 60, 1e-8);
  spec.pp.pp_tol = 0.3;
  const solver::SolveReport seq = parpp::solve(t, spec);

  spec.engine = EngineKind::kDt;
  spec.execution = solver::Execution::simulated_parallel(4, {1, 2, 2});
  const solver::SolveReport par = parpp::solve(t, spec);
  // The distributed HALS update is row-exact; PP phase entry depends on
  // norm comparisons whose reduction order differs, so allow small drift.
  EXPECT_NEAR(par.fitness, seq.fitness, 5e-3);
  for (const auto& a : par.factors) {
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), 0.0);
  }
}

}  // namespace
}  // namespace parpp::core
