#include <gtest/gtest.h>

#include "parpp/data/hyperspectral.hpp"
#include "parpp/solver/solve.hpp"
#include "test_util.hpp"

namespace parpp::par {
namespace {

/// MSDT NNCP, on `nprocs` ranks of `grid` when nprocs > 1.
solver::SolverSpec nncp_spec(index_t rank, int max_sweeps, double tol,
                             int nprocs = 1, std::vector<int> grid = {}) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kNncpHals;
  spec.rank = rank;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  if (nprocs > 1)
    spec.execution =
        solver::Execution::simulated_parallel(nprocs, std::move(grid));
  return spec;
}

TEST(ParNncp, MatchesSequentialHals) {
  const auto t = test::random_tensor({8, 9, 10}, 1401);
  const auto seq = parpp::solve(t, nncp_spec(4, 10, 0.0));
  const auto par = parpp::solve(t, nncp_spec(4, 10, 0.0, 8, {2, 2, 2}));
  // HALS is row-local given Γ and M, so any grid reproduces the sequential
  // trajectory exactly.
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
  for (std::size_t m = 0; m < seq.factors.size(); ++m)
    EXPECT_LE(par.factors[m].max_abs_diff(seq.factors[m]), 1e-6);
}

TEST(ParNncp, FactorsStayNonnegativeAcrossGrids) {
  const auto t = test::random_tensor({7, 6, 8}, 1402);
  const auto r = parpp::solve(t, nncp_spec(3, 8, 0.0, 4, {2, 1, 2}));
  for (const auto& a : r.factors)
    for (index_t i = 0; i < a.rows(); ++i)
      for (index_t j = 0; j < a.cols(); ++j) EXPECT_GE(a(i, j), 0.0);
}

TEST(ParNncp, HyperspectralWorkloadConverges) {
  data::HyperspectralOptions hs;
  hs.height = 16;
  hs.width = 20;
  hs.bands = 8;
  hs.frames = 4;
  const auto t = data::make_hyperspectral_tensor(hs);
  const auto r = parpp::solve(t, nncp_spec(10, 40, 1e-6, 4, {2, 2, 1, 1}));
  EXPECT_GT(r.fitness, 0.75);
  EXPECT_GT(r.comm_cost.total().messages, 0.0);
}

TEST(ParNncp, NonDivisibleExtentsExact) {
  const auto t = test::random_tensor({9, 5, 7}, 1403);
  const auto seq = parpp::solve(t, nncp_spec(3, 6, 0.0));
  const auto par = parpp::solve(t, nncp_spec(3, 6, 0.0, 4, {2, 2, 1}));
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
}

TEST(ParNncp, DoesAlsMttkrpWork) {
  // HALS changes only the factor update: on one tensor, grid and engine the
  // nonnegative loop must run the same MTTKRP Reduce-Scatters and do the
  // same tree-engine TTM work as ALS — no extra residual MTTKRP per sweep,
  // which would also break MSDT's subtree rotation.
  const auto t = test::random_tensor({12, 10, 8}, 1404);
  solver::SolverSpec spec = nncp_spec(4, 6, -1.0, 4, {2, 2, 1});
  spec.engine = core::EngineKind::kMsdt;
  const auto nncp = parpp::solve(t, spec);
  spec.method = solver::Method::kAls;
  const auto als = parpp::solve(t, spec);
  ASSERT_EQ(nncp.sweeps, 6);
  ASSERT_EQ(als.sweeps, 6);
  EXPECT_EQ(nncp.comm_cost.by_class(mpsim::Collective::kReduceScatter).messages,
            als.comm_cost.by_class(mpsim::Collective::kReduceScatter).messages);
  EXPECT_EQ(nncp.critical_path_profile.flops(Kernel::kTTM),
            als.critical_path_profile.flops(Kernel::kTTM));
}

}  // namespace
}  // namespace parpp::par
