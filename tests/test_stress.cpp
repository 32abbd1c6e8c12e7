// Randomized cross-engine stress tests: many (shape, rank, seed) instances
// where all amortization strategies must agree with the unamortized
// reference and with each other under real ALS dynamics.
#include <gtest/gtest.h>

#include <tuple>

#include "parpp/core/gram.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

using StressCase = std::tuple<int, index_t, index_t, std::uint64_t>;
// (order, base extent, rank, seed); extents are base, base+1, ... so shapes
// are non-equidimensional by construction.

std::vector<index_t> shape_of(const StressCase& c) {
  std::vector<index_t> shape;
  for (int m = 0; m < std::get<0>(c); ++m)
    shape.push_back(std::get<1>(c) + m);
  return shape;
}

class EngineStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(EngineStress, AllEnginesTrackReferenceThroughAls) {
  const auto shape = shape_of(GetParam());
  const index_t rank = std::get<2>(GetParam());
  const std::uint64_t seed = std::get<3>(GetParam());
  const auto t = test::random_tensor(shape, seed);
  const int n = t.order();

  auto factors = test::random_factors(shape, rank, seed + 1);
  auto grams = core::all_grams(factors);
  auto dt = core::make_engine(core::EngineKind::kDt, t, factors);
  auto msdt = core::make_engine(core::EngineKind::kMsdt, t, factors);

  for (int sweep = 0; sweep < 3; ++sweep) {
    for (int i = 0; i < n; ++i) {
      const la::Matrix want = tensor::mttkrp_krp(t, factors, i);
      const la::Matrix m_dt = dt->mttkrp(i);
      const la::Matrix m_msdt = msdt->mttkrp(i);
      const double tol = 1e-9 * want.frobenius_norm() + 1e-12;
      ASSERT_LE(m_dt.max_abs_diff(want), tol) << "DT sweep " << sweep;
      ASSERT_LE(m_msdt.max_abs_diff(want), tol) << "MSDT sweep " << sweep;
      const la::Matrix gamma = core::gamma_chain(grams, i);
      factors[static_cast<std::size_t>(i)] = core::update_factor(gamma, m_dt);
      dt->notify_update(i);
      msdt->notify_update(i);
      grams[static_cast<std::size_t>(i)] =
          la::gram(factors[static_cast<std::size_t>(i)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, EngineStress,
    ::testing::Values(StressCase{3, 4, 2, 11}, StressCase{3, 7, 5, 12},
                      StressCase{4, 3, 3, 13}, StressCase{4, 5, 2, 14},
                      StressCase{5, 3, 2, 15}, StressCase{5, 2, 4, 16},
                      StressCase{6, 2, 2, 17}, StressCase{3, 9, 7, 18},
                      StressCase{4, 4, 6, 19}, StressCase{2, 8, 3, 20}));

class ParallelStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(ParallelStress, GridMatchesSequential) {
  const auto shape = shape_of(GetParam());
  const index_t rank = std::get<2>(GetParam());
  const std::uint64_t seed = std::get<3>(GetParam());
  const auto t = test::random_tensor(shape, seed);

  solver::SolverSpec spec;
  spec.rank = rank;
  spec.stopping.max_sweeps = 4;
  spec.stopping.fitness_tol = 0.0;
  spec.seed = seed + 2;
  spec.engine = core::EngineKind::kDt;
  const auto seq = parpp::solve(t, spec);

  // Execution::simulated_parallel picks the balanced grid.
  spec.execution = solver::Execution::simulated_parallel(4);
  const auto par = parpp::solve(t, spec);
  EXPECT_NEAR(par.fitness, seq.fitness, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Instances, ParallelStress,
    ::testing::Values(StressCase{3, 5, 3, 31}, StressCase{3, 8, 2, 32},
                      StressCase{4, 4, 3, 33}, StressCase{4, 6, 2, 34},
                      StressCase{5, 3, 2, 35}));

/// PP end-to-end on random instances: must never diverge and must land
/// within a modest gap of plain ALS at the same budget.
class PpStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(PpStress, TracksAlsWithinTolerance) {
  const auto shape = shape_of(GetParam());
  const index_t rank = std::get<2>(GetParam());
  const std::uint64_t seed = std::get<3>(GetParam());
  const auto t = test::low_rank_tensor(shape, rank, seed);

  solver::SolverSpec spec;
  spec.rank = rank;
  spec.stopping.max_sweeps = 100;
  spec.stopping.fitness_tol = 1e-8;
  spec.engine = core::EngineKind::kDt;
  const auto als = parpp::solve(t, spec);
  spec.method = solver::Method::kPp;
  spec.engine = core::EngineKind::kMsdt;
  spec.pp.pp_tol = 0.1;
  const auto ppr = parpp::solve(t, spec);
  EXPECT_GE(ppr.fitness, als.fitness - 0.01)
      << "PP must not lose meaningful fitness on " << shape.size()
      << "-order instance";
}

INSTANTIATE_TEST_SUITE_P(
    Instances, PpStress,
    ::testing::Values(StressCase{3, 7, 3, 41}, StressCase{3, 10, 2, 42},
                      StressCase{4, 5, 2, 43}, StressCase{4, 4, 4, 44},
                      StressCase{5, 3, 2, 45}));

}  // namespace
}  // namespace parpp
