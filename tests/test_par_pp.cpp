#include <gtest/gtest.h>

#include <cmath>

#include "parpp/data/collinearity.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/par/ref_pp.hpp"
#include "parpp/solver/solve.hpp"
#include "test_util.hpp"

namespace parpp::par {
namespace {

/// PP with the given engine, on `nprocs` ranks of `grid` when nprocs > 1.
solver::SolverSpec pp_spec(index_t rank, int max_sweeps, double tol,
                           double pp_tol, core::EngineKind engine,
                           int nprocs = 1, std::vector<int> grid = {}) {
  solver::SolverSpec spec;
  spec.method = solver::Method::kPp;
  spec.rank = rank;
  spec.stopping.max_sweeps = max_sweeps;
  spec.stopping.fitness_tol = tol;
  spec.pp.pp_tol = pp_tol;
  spec.engine = engine;
  if (nprocs > 1)
    spec.execution =
        solver::Execution::simulated_parallel(nprocs, std::move(grid));
  return spec;
}

TEST(ParPp, ConvergesOnLowRankTensor) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 901);
  const solver::SolveReport r = parpp::solve(
      t, pp_spec(3, 120, 1e-9, 0.1, core::EngineKind::kMsdt, 8, {2, 2, 2}));
  EXPECT_GT(r.fitness, 0.999);
}

TEST(ParPp, TracksSequentialPpFitness) {
  const auto gen =
      data::make_collinear_tensor({12, 12, 12}, 3, 0.7, 0.8, 902);
  const solver::SolveReport seq = parpp::solve(
      gen.tensor, pp_spec(3, 60, 1e-8, 0.3, core::EngineKind::kMsdt));
  const solver::SolveReport par = parpp::solve(
      gen.tensor, pp_spec(3, 60, 1e-8, 0.3, core::EngineKind::kDt, 4,
                          {2, 2, 1}));
  // PP phase entry depends on norm comparisons that are identical in exact
  // arithmetic; allow small drift from reduction-order round-off.
  EXPECT_NEAR(par.fitness, seq.fitness, 5e-3);
  EXPECT_GT(par.num_pp_init + par.num_pp_approx, 0)
      << "PP should engage in the parallel driver too";
}

TEST(ParPp, PpSweepsActivateOnSlowConvergence) {
  const auto gen =
      data::make_collinear_tensor({12, 12, 12}, 4, 0.85, 0.9, 903);
  const solver::SolveReport r = parpp::solve(
      gen.tensor,
      pp_spec(4, 100, 1e-9, 0.1, core::EngineKind::kDt, 4, {2, 2, 1}));
  EXPECT_GT(r.num_pp_init, 0);
  EXPECT_GT(r.num_pp_approx, 0);
}

/// The timing benches' spec: DT ALS at rank `rank` on `grid`.
solver::SolverSpec timing_spec(index_t rank, std::vector<int> grid) {
  int nprocs = 1;
  for (int d : grid) nprocs *= d;
  solver::SolverSpec spec;
  spec.rank = rank;
  spec.engine = core::EngineKind::kDt;
  spec.execution =
      solver::Execution::simulated_parallel(nprocs, std::move(grid));
  return spec;
}

TEST(ParPp, KernelTimingsProduceSaneOutput) {
  const auto t = test::random_tensor({12, 12, 12}, 904);
  const PpKernelTimings timings =
      time_pp_kernels(t, timing_spec(4, {2, 2, 1}), 3);
  EXPECT_GT(timings.init_seconds, 0.0);
  EXPECT_GT(timings.approx_sweep_seconds, 0.0);
  EXPECT_GT(timings.init_profile.flops(Kernel::kTTM), 0.0)
      << "PP init does first-level TTMs";
  EXPECT_GT(timings.approx_profile.flops(Kernel::kMTTV), 0.0)
      << "PP approx is mTTV-bound";
  EXPECT_DOUBLE_EQ(timings.approx_profile.flops(Kernel::kTTM), 0.0)
      << "PP approx must not touch the input tensor";
}

TEST(ParPp, RefImplementationCostsMoreCommunication) {
  const auto t = test::random_tensor({12, 12, 12}, 905);
  const solver::SolverSpec spec = timing_spec(4, {2, 2, 2});
  const PpKernelTimings ours = time_pp_kernels(t, spec, 3);
  const PpKernelTimings ref = time_ref_pp_kernels(t, spec, 3);
  EXPECT_GT(ref.comm_cost.total().words_horizontal,
            2.0 * ours.comm_cost.total().words_horizontal)
      << "Table II: the reference PP moves far more data";
}

TEST(ParPp, RefApproxStepStillExactForZeroPerturbation) {
  // With dA = 0 the reference approx sweep reduces to solving with M_p —
  // it must keep the factors consistent (no NaNs, residual well-defined).
  const auto t = test::low_rank_tensor({8, 8, 8}, 2, 906);
  const PpKernelTimings timings =
      time_ref_pp_kernels(t, timing_spec(2, {2, 1, 1}), 2);
  EXPECT_TRUE(std::isfinite(timings.approx_sweep_seconds));
}

TEST(ParPp, Order4GridRuns) {
  const auto t = test::low_rank_tensor({6, 4, 4, 6}, 2, 907);
  const solver::SolveReport r = parpp::solve(
      t, pp_spec(2, 60, 1e-8, 0.1, core::EngineKind::kDt, 4, {2, 1, 1, 2}));
  EXPECT_GT(r.fitness, 0.99);
}

}  // namespace
}  // namespace parpp::par
