#include <gtest/gtest.h>

#include <cmath>

#include "parpp/core/nncp.hpp"
#include "parpp/data/hyperspectral.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

// NNCP runs on the MSDT engine unless a test picks another one.
solver::SolverSpec nncp_spec(index_t rank, int max_sweeps, double tol) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kNncpHals;
  spec.rank = rank;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  return spec;
}

/// Nonnegative ground truth: uniform [0,1) factors are nonnegative, so the
/// planted tensor is recoverable by NNCP.
TEST(Nncp, RecoversNonnegativeLowRank) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 1301);
  const solver::SolverSpec spec = nncp_spec(3, 200, 1e-9);
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_GT(r.fitness, 0.995);
}

TEST(Nncp, FactorsStayNonnegative) {
  const auto t = test::random_tensor({8, 7, 6}, 1302);
  const solver::SolverSpec spec = nncp_spec(4, 30, 0.0);
  const solver::SolveReport r = parpp::solve(t, spec);
  for (const auto& a : r.factors) {
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j)
        EXPECT_GE(a(i, j), 0.0) << "HALS must keep factors nonnegative";
  }
}

TEST(Nncp, FitnessNonDecreasing) {
  const auto t = test::random_tensor({9, 8, 7}, 1303);
  const solver::SolverSpec spec = nncp_spec(5, 25, 0.0);
  const solver::SolveReport r = parpp::solve(t, spec);
  ASSERT_GE(r.history.size(), 2u);
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_GE(r.history[i].fitness, r.history[i - 1].fitness - 1e-8);
}

TEST(Nncp, DtAndMsdtEnginesAgree) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 2, 1304);
  solver::SolverSpec spec = nncp_spec(2, 20, 0.0);
  spec.engine = EngineKind::kDt;
  const solver::SolveReport dt = parpp::solve(t, spec);
  spec.engine = EngineKind::kMsdt;
  const solver::SolveReport msdt = parpp::solve(t, spec);
  EXPECT_NEAR(dt.fitness, msdt.fitness, 1e-8)
      << "engines are exact, trajectories must match";
}

TEST(Nncp, ResidualMatchesExplicit) {
  const auto t = test::low_rank_tensor({7, 6, 5}, 2, 1305);
  const solver::SolverSpec spec = nncp_spec(2, 60, 1e-8);
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_NEAR(test::explicit_residual(t, r.factors), r.residual, 1e-6);
}

TEST(Nncp, HandlesHyperspectralWorkload) {
  data::HyperspectralOptions hs;
  hs.height = 16;
  hs.width = 20;
  hs.bands = 8;
  hs.frames = 4;
  const auto t = data::make_hyperspectral_tensor(hs);
  const solver::SolverSpec spec = nncp_spec(12, 60, 1e-6);
  const solver::SolveReport r = parpp::solve(t, spec);
  EXPECT_GT(r.fitness, 0.8)
      << "nonnegative radiance data should compress well under NNCP";
}

TEST(Nncp, InnerIterationsStayInSameBallpark) {
  // Extra inner HALS passes change the trajectory but must land at a
  // comparable stationary fitness (they optimize the same subproblems more
  // tightly per sweep — not necessarily better after a fixed sweep count).
  const auto t = test::random_tensor({8, 8, 8}, 1306);
  solver::SolverSpec spec = nncp_spec(4, 15, 0.0);
  const solver::SolveReport r1 = parpp::solve(t, spec);
  spec.nncp.inner_iterations = 3;
  const solver::SolveReport r3 = parpp::solve(t, spec);
  EXPECT_GT(r1.fitness, 0.3);
  EXPECT_GT(r3.fitness, 0.3);
  EXPECT_NEAR(r3.fitness, r1.fitness, 0.05);
}

}  // namespace
}  // namespace parpp::core
