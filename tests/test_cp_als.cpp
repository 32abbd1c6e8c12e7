#include <gtest/gtest.h>

#include <cmath>

#include "parpp/core/cp_als.hpp"
#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

TEST(Fitness, EqThreeMatchesExplicitResidual) {
  // Check Eq. (3) against reconstruction on random factors/tensor.
  const std::vector<index_t> shape{5, 6, 7};
  const auto t = test::random_tensor(shape, 501);
  const auto factors = test::random_factors(shape, 3, 502);
  const auto grams = all_grams(factors);
  const la::Matrix gamma = gamma_chain(grams, 2);
  const la::Matrix m = tensor::mttkrp_elementwise(t, factors, 2);
  const double r =
      relative_residual(t.squared_norm(), gamma, grams[2], m, factors[2]);
  EXPECT_NEAR(r, test::explicit_residual(t, factors), 1e-9);
}

TEST(Fitness, ZeroResidualForExactFactors) {
  const auto factors = test::random_factors({4, 5, 6}, 2, 503);
  const auto t = tensor::reconstruct(factors);
  const auto grams = all_grams(factors);
  const la::Matrix gamma = gamma_chain(grams, 2);
  const la::Matrix m = tensor::mttkrp_elementwise(t, factors, 2);
  const double r =
      relative_residual(t.squared_norm(), gamma, grams[2], m, factors[2]);
  EXPECT_NEAR(r, 0.0, 1e-7);
}

TEST(GammaChain, MatchesManualHadamard) {
  const auto factors = test::random_factors({4, 5, 6}, 3, 504);
  const auto grams = all_grams(factors);
  const la::Matrix g = gamma_chain(grams, 1);
  const la::Matrix want = la::hadamard(grams[0], grams[2]);
  test::expect_matrix_near(g, want, 1e-12, "gamma skip 1");
  const la::Matrix full = gamma_chain(grams, -1);
  la::Matrix want_full = la::hadamard(grams[0], grams[1]);
  want_full.hadamard_inplace(grams[2]);
  test::expect_matrix_near(full, want_full, 1e-12, "gamma full");
}

class AlsEngines : public ::testing::TestWithParam<EngineKind> {};

TEST_P(AlsEngines, RecoversLowRankTensor) {
  const std::vector<index_t> shape{10, 11, 12};
  const auto t = test::low_rank_tensor(shape, 3, 505);
  solver::SolverSpec spec;
  spec.rank = 3;
  spec.stopping.max_sweeps = 150;
  spec.stopping.fitness_tol = 1e-9;
  spec.engine = GetParam();
  const solver::SolveReport result = parpp::solve(t, spec);
  EXPECT_GT(result.fitness, 0.9999)
      << engine_kind_name(GetParam()) << " should recover a rank-3 tensor";
  EXPECT_NEAR(test::explicit_residual(t, result.factors), result.residual,
              1e-6);
}

INSTANTIATE_TEST_SUITE_P(Engines, AlsEngines,
                         ::testing::Values(EngineKind::kNaive, EngineKind::kDt,
                                           EngineKind::kMsdt));

TEST(CpAls, FitnessMonotonicallyNonDecreasing) {
  const auto t = test::random_tensor({8, 9, 10}, 506);
  solver::SolverSpec spec;
  spec.rank = 5;
  spec.stopping.max_sweeps = 25;
  spec.stopping.fitness_tol = 0.0;  // run all sweeps
  spec.engine = EngineKind::kDt;
  const solver::SolveReport result = parpp::solve(t, spec);
  ASSERT_GE(result.history.size(), 2u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GE(result.history[i].fitness,
              result.history[i - 1].fitness - 1e-9)
        << "ALS residual must not increase (sweep " << i << ")";
  }
}

TEST(CpAls, EnginesProduceSameTrajectory) {
  const auto t = test::random_tensor({7, 6, 5}, 507);
  solver::SolverSpec spec;
  spec.rank = 4;
  spec.stopping.max_sweeps = 10;
  spec.stopping.fitness_tol = 0.0;
  spec.engine = EngineKind::kDt;
  const solver::SolveReport dt = parpp::solve(t, spec);
  spec.engine = EngineKind::kMsdt;
  const solver::SolveReport msdt = parpp::solve(t, spec);
  spec.engine = EngineKind::kNaive;
  const solver::SolveReport naive = parpp::solve(t, spec);
  EXPECT_NEAR(dt.fitness, msdt.fitness, 1e-8);
  EXPECT_NEAR(dt.fitness, naive.fitness, 1e-8);
  for (int m = 0; m < 3; ++m) {
    EXPECT_LE(dt.factors[static_cast<std::size_t>(m)].max_abs_diff(
                  msdt.factors[static_cast<std::size_t>(m)]),
              1e-6);
  }
}

TEST(CpAls, Order4Works) {
  const auto t = test::low_rank_tensor({6, 5, 4, 5}, 2, 508);
  solver::SolverSpec spec;
  spec.rank = 2;
  spec.stopping.max_sweeps = 120;
  spec.stopping.fitness_tol = 1e-10;
  spec.engine = EngineKind::kMsdt;
  const solver::SolveReport result = parpp::solve(t, spec);
  EXPECT_GT(result.fitness, 0.999);
}

TEST(CpAls, StopsOnTolerance) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 2, 509);
  solver::SolverSpec spec;
  spec.rank = 2;
  spec.stopping.max_sweeps = 300;
  spec.stopping.fitness_tol = 1e-4;
  spec.engine = EngineKind::kDt;
  const solver::SolveReport result = parpp::solve(t, spec);
  EXPECT_LT(result.sweeps, 300);
}

TEST(CpAls, HistoryTimestampsIncrease) {
  const auto t = test::random_tensor({6, 6, 6}, 510);
  solver::SolverSpec spec;
  spec.rank = 3;
  spec.stopping.max_sweeps = 5;
  spec.stopping.fitness_tol = 0.0;
  spec.engine = EngineKind::kDt;
  const solver::SolveReport result = parpp::solve(t, spec);
  for (std::size_t i = 1; i < result.history.size(); ++i)
    EXPECT_GE(result.history[i].seconds, result.history[i - 1].seconds);
}

TEST(CpAls, ProfileAccountsWork) {
  const auto t = test::random_tensor({8, 8, 8}, 511);
  solver::SolverSpec spec;
  spec.rank = 4;
  spec.stopping.max_sweeps = 3;
  spec.stopping.fitness_tol = 0.0;
  spec.engine = EngineKind::kDt;
  const solver::SolveReport result = parpp::solve(t, spec);
  EXPECT_GT(result.profile.flops(Kernel::kTTM), 0.0);
  EXPECT_GT(result.profile.flops(Kernel::kMTTV), 0.0);
  EXPECT_GT(result.profile.flops(Kernel::kSolve), 0.0);
  EXPECT_GT(result.profile.flops(Kernel::kHadamard), 0.0);
}

TEST(InitFactors, DeterministicAndInRange) {
  const auto a = init_factors({5, 6}, 3, 42);
  const auto b = init_factors({5, 6}, 3, 42);
  const auto c = init_factors({5, 6}, 3, 43);
  EXPECT_DOUBLE_EQ(a[0].max_abs_diff(b[0]), 0.0);
  EXPECT_GT(a[0].max_abs_diff(c[0]), 0.0);
  for (index_t i = 0; i < 5; ++i)
    for (index_t j = 0; j < 3; ++j) {
      EXPECT_GE(a[0](i, j), 0.0);
      EXPECT_LT(a[0](i, j), 1.0);
    }
}

}  // namespace
}  // namespace parpp::core
