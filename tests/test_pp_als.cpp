#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "parpp/core/pp_als.hpp"
#include "parpp/data/collinearity.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/solver/strings.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

// PP runs its regular sweeps on MSDT unless a test picks another engine.
solver::SolverSpec pp_spec(index_t rank, int max_sweeps, double tol) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kPp;
  spec.rank = rank;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  return spec;
}

TEST(PpAls, ReachesAlsFitnessOnLowRank) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 601);
  solver::SolverSpec spec = pp_spec(3, 200, 1e-9);
  spec.pp.pp_tol = 0.1;
  const solver::SolveReport ppr = parpp::solve(t, spec);
  spec.method = solver::Method::kAls;
  spec.engine = EngineKind::kDt;
  const solver::SolveReport als = parpp::solve(t, spec);
  EXPECT_GT(ppr.fitness, 0.999);
  EXPECT_NEAR(ppr.fitness, als.fitness, 5e-3);
}

TEST(PpAls, ActivatesPpSweepsOnSlowConvergence) {
  // High-collinearity tensors converge slowly, which is exactly when PP
  // engages (paper Sec. V-C).
  const auto gen =
      data::make_collinear_tensor({14, 14, 14}, 4, 0.85, 0.9, 602);
  solver::SolverSpec spec = pp_spec(4, 120, 1e-8);
  spec.pp.pp_tol = 0.1;
  const solver::SolveReport result = parpp::solve(gen.tensor, spec);
  EXPECT_GT(result.num_pp_init, 0) << "PP should have initialized";
  EXPECT_GT(result.num_pp_approx, 0) << "PP sweeps should have run";
  EXPECT_GT(result.num_als_sweeps, 0);
}

TEST(PpAls, StatsSumToTotalSweeps) {
  const auto gen = data::make_collinear_tensor({12, 12, 12}, 3, 0.6, 0.8, 603);
  const solver::SolverSpec spec = pp_spec(3, 80, 1e-8);
  const solver::SolveReport r = parpp::solve(gen.tensor, spec);
  EXPECT_EQ(r.sweeps, r.num_als_sweeps + r.num_pp_init + r.num_pp_approx);
}

TEST(PpAls, FinalFitnessMatchesExplicitResidual) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 2, 604);
  const solver::SolverSpec spec = pp_spec(2, 100, 1e-9);
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_NEAR(test::explicit_residual(t, r.factors), r.residual, 1e-5);
}

TEST(PpAls, HistoryPhasesAreLabelled) {
  const auto gen = data::make_collinear_tensor({12, 12, 12}, 3, 0.85, 0.9, 605);
  solver::SolverSpec spec = pp_spec(3, 100, 1e-9);
  spec.pp.pp_tol = 0.1;
  const solver::SolveReport r = parpp::solve(gen.tensor, spec);
  bool saw_als = false, saw_init = false, saw_approx = false;
  for (const auto& rec : r.history) {
    saw_als |= rec.phase == "als";
    saw_init |= rec.phase == "pp-init";
    saw_approx |= rec.phase == "pp-approx";
  }
  EXPECT_TRUE(saw_als);
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_approx);
}

TEST(PpAls, Order4Converges) {
  const auto t = test::low_rank_tensor({6, 5, 4, 5}, 2, 606);
  solver::SolverSpec spec = pp_spec(2, 150, 1e-9);
  spec.pp.pp_tol = 0.1;
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_GT(r.fitness, 0.99);
}

TEST(PpAls, RejectsBadTolerance) {
  const auto t = test::random_tensor({4, 4, 4}, 607);
  solver::SolverSpec spec;  // default rank, budget and tolerance
  spec.method = solver::Method::kPp;
  spec.pp.pp_tol = 1.5;
  EXPECT_THROW((void)parpp::solve(t, spec), error);
}

TEST(PpAls, SecondOrderSwitchHoldsOnEveryRankCount) {
  const auto gen =
      data::make_collinear_tensor({12, 12, 12}, 4, 0.6, 0.8, 53, 1e-3);
  for (int procs : {1, 4}) {
    solver::SolverSpec spec = pp_spec(4, 80, -1.0);  // every sweep runs
    spec.pp.pp_tol = 0.2;
    if (procs > 1)
      spec.execution = solver::Execution::simulated_parallel(procs);
    const solver::SolveReport with = parpp::solve(gen.tensor, spec);
    spec.pp.second_order = false;
    const solver::SolveReport without = parpp::solve(gen.tensor, spec);
    ASSERT_GT(with.num_pp_approx, 0) << procs << " ranks";
    EXPECT_NE(with.fitness, without.fitness)
        << procs << " ranks: dropping V(n) must change the run";
  }
}

TEST(PpAls, InputChecksHoldOnEveryRankCount) {
  const auto order3 = test::random_tensor({4, 4, 4}, 607);
  const auto order2 = test::random_tensor({6, 5}, 609);
  // The pair operators walk a root tree per mode, which a kHalf CSF tensor
  // lacks; its blocks keep the layout, so every rank count must reject it.
  const tensor::CsfTensor half(data::make_sparse_random({8, 8, 8}, 0.2, 610),
                               {tensor::CsfLayout::kHalf});
  for (int procs : {1, 4}) {
    solver::SolverSpec spec = pp_spec(2, 10, 1e-5);
    if (procs > 1)
      spec.execution = solver::Execution::simulated_parallel(procs);
    spec.pp.pp_tol = 1.5;
    EXPECT_THROW((void)parpp::solve(order3, spec), error) << procs;
    spec.pp.pp_tol = 0.1;
    EXPECT_THROW((void)parpp::solve(order2, spec), error) << procs;
    for (solver::Method method :
         {solver::Method::kPp, solver::Method::kPpNncp}) {
      spec.method = method;
      EXPECT_THROW((void)parpp::solve(half, spec), error)
          << procs << " ranks, " << solver::to_string(method);
    }
  }
}

TEST(PpAls, SweepCountsAddUpWhenTheTrustGuardFires) {
  // Rank 4 on a noise tensor trips the PP trust guard; the discarded
  // approximated sweeps still count, in num_pp_approx and in the total.
  const auto t = test::random_tensor({8, 7, 6, 5}, 2);
  for (int procs : {1, 4}) {
    solver::SolverSpec spec = pp_spec(4, 40, -1.0);
    spec.pp.pp_tol = 0.3;
    if (procs > 1)
      spec.execution = solver::Execution::simulated_parallel(procs);
    const solver::SolveReport r = parpp::solve(t, spec);
    bool guard = false;
    for (const auto& e : r.recovery_log)
      guard |= e.what.find("PP trust guard") != std::string::npos;
    ASSERT_TRUE(guard) << procs << " ranks";
    EXPECT_EQ(r.sweeps, 40);
    EXPECT_EQ(r.num_als_sweeps + r.num_pp_init + r.num_pp_approx, r.sweeps)
        << procs << " ranks";
  }
}

TEST(PpAls, DtRegularEngineAlsoWorks) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 608);
  solver::SolverSpec spec = pp_spec(2, 100, 1e-9);
  spec.engine = EngineKind::kDt;
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_GT(r.fitness, 0.999);
}

}  // namespace
}  // namespace parpp::core
