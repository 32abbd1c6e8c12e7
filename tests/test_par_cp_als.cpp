#include <gtest/gtest.h>

#include <cmath>

#include "parpp/par/par_pp.hpp"
#include "parpp/solver/solver.hpp"
#include "test_util.hpp"

namespace parpp::par {
namespace {

struct GridCase {
  std::vector<int> dims;
};

void PrintTo(const GridCase& c, std::ostream* os) {
  *os << "grid ";
  test::print_dims(c.dims, os);
}

class ParGrids : public ::testing::TestWithParam<GridCase> {};

/// DT ALS at a fixed sweep count (tol 0), on `nprocs` ranks of `grid` when
/// nprocs > 1.
solver::SolverSpec dt_spec(index_t rank, int max_sweeps, int nprocs = 1,
                           std::vector<int> grid = {}) {
  solver::SolverSpec spec;
  spec.rank = rank;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = 0.0;
  spec.engine = core::EngineKind::kDt;
  if (nprocs > 1)
    spec.execution =
        solver::Execution::simulated_parallel(nprocs, std::move(grid));
  return spec;
}

/// Algorithm 3 on any grid must reproduce the sequential trajectory exactly
/// (same deterministic initialization, same updates).
TEST_P(ParGrids, MatchesSequentialRun) {
  const std::vector<index_t> shape{8, 9, 10};
  const auto t = test::random_tensor(shape, 801);
  solver::SolverSpec spec = dt_spec(4, 6);
  const solver::SolveReport seq = parpp::solve(t, spec);

  int nprocs = 1;
  for (int d : GetParam().dims) nprocs *= d;
  // The loop on copied DenseBlockProblem blocks (one block for 1x1x1),
  // against the 1-rank solve(), which views the tensor in place.
  spec.execution.nprocs = nprocs;
  spec.execution.grid_dims = GetParam().dims;
  const solver::SolveReport par =
      run_cp_als(dist::DenseBlockProblem(t), spec);

  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
  ASSERT_EQ(par.factors.size(), seq.factors.size());
  for (std::size_t m = 0; m < seq.factors.size(); ++m) {
    const double scale = seq.factors[m].frobenius_norm() + 1.0;
    EXPECT_LE(par.factors[m].max_abs_diff(seq.factors[m]), 1e-6 * scale)
        << "mode " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ParGrids,
    ::testing::Values(GridCase{{1, 1, 1}}, GridCase{{2, 1, 1}},
                      GridCase{{1, 2, 2}}, GridCase{{2, 2, 2}},
                      GridCase{{4, 1, 2}}, GridCase{{2, 2, 4}}));

TEST(ParCpAls, MsdtLocalEngineMatchesDt) {
  const auto t = test::random_tensor({8, 8, 8}, 802);
  solver::SolverSpec spec = dt_spec(3, 5, 8, {2, 2, 2});
  const solver::SolveReport dt = parpp::solve(t, spec);
  spec.engine = core::EngineKind::kMsdt;
  const solver::SolveReport msdt = parpp::solve(t, spec);
  EXPECT_NEAR(dt.fitness, msdt.fitness, 1e-8);
}

TEST(ParCpAls, PlancBaselineMatchesDistributedSolve) {
  const auto t = test::random_tensor({6, 8, 10}, 803);
  solver::SolverSpec spec = dt_spec(3, 4, 4, {2, 2, 1});
  const solver::SolveReport ours = parpp::solve(t, spec);
  // The PLANC preset: DT engine + replicated sequential solve.
  spec.execution.solve_mode = SolveMode::kReplicatedSequential;
  const solver::SolveReport planc = parpp::solve(t, spec);
  EXPECT_NEAR(ours.fitness, planc.fitness, 1e-8);
  // PLANC moves more words (the extra M All-Gather).
  EXPECT_GT(planc.comm_cost.total().words_horizontal,
            ours.comm_cost.total().words_horizontal);
}

TEST(ParCpAls, Order4Grid) {
  const auto t = test::random_tensor({6, 4, 6, 4}, 804);
  const solver::SolveReport seq = parpp::solve(t, dt_spec(3, 4));
  const solver::SolveReport par =
      parpp::solve(t, dt_spec(3, 4, 8, {2, 1, 2, 2}));
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
}

TEST(ParCpAls, NonDivisibleExtentsStillExact) {
  // Padding paths: extents not divisible by grid dims or group sizes.
  const auto t = test::random_tensor({7, 9, 5}, 805);
  const solver::SolveReport seq = parpp::solve(t, dt_spec(3, 5));
  const solver::SolveReport par = parpp::solve(t, dt_spec(3, 5, 8, {2, 2, 2}));
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
  for (std::size_t m = 0; m < seq.factors.size(); ++m)
    EXPECT_LE(par.factors[m].max_abs_diff(seq.factors[m]), 1e-6);
}

TEST(ParCpAls, SweepProfilesRecorded) {
  const auto t = test::random_tensor({8, 8, 8}, 806);
  const solver::SolveReport r = parpp::solve(t, dt_spec(3, 3, 4, {2, 2, 1}));
  ASSERT_EQ(static_cast<int>(r.sweep_profiles.size()), r.sweeps);
  for (const auto& p : r.sweep_profiles) {
    EXPECT_GT(p.flops(Kernel::kTTM), 0.0);
  }
  EXPECT_GT(r.comm_cost.total().messages, 0.0);
  EXPECT_GT(r.mean_sweep_seconds, 0.0);
}

TEST(ParCpAls, CommCostScalesWithCollectiveCount) {
  const auto t = test::random_tensor({8, 8, 8}, 807);
  const solver::SolveReport two = parpp::solve(t, dt_spec(3, 2, 8, {2, 2, 2}));
  const solver::SolveReport four =
      parpp::solve(t, dt_spec(3, 4, 8, {2, 2, 2}));
  EXPECT_GT(four.comm_cost.total().messages,
            1.5 * two.comm_cost.total().messages);
}

}  // namespace
}  // namespace parpp::par
