#include <gtest/gtest.h>

#include <vector>

#include "parpp/core/dim_tree.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

/// Emulates ALS sweeps with the given engine and checks every produced
/// MTTKRP against the unamortized reference at the *same* factor values.
void check_engine_against_reference(EngineKind kind,
                                    const std::vector<index_t>& shape,
                                    index_t rank, int sweeps,
                                    const EngineOptions& opts = {}) {
  const auto t = test::random_tensor(shape, 101);
  auto factors = test::random_factors(shape, rank, 102);
  auto grams = all_grams(factors);
  auto engine = make_engine(kind, t, factors, nullptr, opts);
  const int n = t.order();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int i = 0; i < n; ++i) {
      const la::Matrix m = engine->mttkrp(i);
      const la::Matrix want = tensor::mttkrp_krp(t, factors, i);
      ASSERT_LE(m.max_abs_diff(want),
                1e-9 * want.frobenius_norm() + 1e-12)
          << engine->name() << " sweep " << sweep << " mode " << i;
      // Perform the real ALS update so later modes see new factors.
      const la::Matrix gamma = gamma_chain(grams, i);
      factors[static_cast<std::size_t>(i)] = update_factor(gamma, m);
      engine->notify_update(i);
      grams[static_cast<std::size_t>(i)] =
          la::gram(factors[static_cast<std::size_t>(i)]);
    }
  }
}

struct TreeCase {
  std::vector<index_t> shape;
  index_t rank;
};

void PrintTo(const TreeCase& c, std::ostream* os) {
  *os << "shape ";
  test::print_dims(c.shape, os);
  *os << " rank " << c.rank;
}

class DtShapes : public ::testing::TestWithParam<TreeCase> {};

TEST_P(DtShapes, MatchesNaiveAcrossSweeps) {
  check_engine_against_reference(EngineKind::kDt, GetParam().shape,
                                 GetParam().rank, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DtShapes,
    ::testing::Values(TreeCase{{6, 7}, 3}, TreeCase{{5, 6, 7}, 4},
                      TreeCase{{4, 5, 6, 3}, 3}, TreeCase{{3, 4, 3, 4, 3}, 2},
                      TreeCase{{9, 2, 8}, 5}, TreeCase{{2, 2, 2, 2, 2, 2}, 2}));

TEST(DtEngine, TwoTtmsPerSweepSteadyState) {
  const std::vector<index_t> shape{6, 6, 6, 6};
  const auto t = test::random_tensor(shape, 103);
  auto factors = test::random_factors(shape, 3, 104);
  DtEngine engine(t, factors, nullptr, {});
  // Warm-up sweep then measure two steady-state sweeps.
  auto run_sweep = [&] {
    for (int i = 0; i < 4; ++i) {
      (void)engine.mttkrp(i);
      Rng rng(105 + i);
      factors[static_cast<std::size_t>(i)].fill_uniform(rng);
      engine.notify_update(i);
    }
  };
  run_sweep();
  const long before = engine.ttm_count();
  run_sweep();
  run_sweep();
  EXPECT_EQ(engine.ttm_count() - before, 4);  // 2 TTMs per sweep
}

TEST(DtEngine, CacheShrinksAfterInvalidation) {
  const std::vector<index_t> shape{5, 5, 5};
  const auto t = test::random_tensor(shape, 106);
  auto factors = test::random_factors(shape, 2, 107);
  DtEngine engine(t, factors, nullptr, {});
  (void)engine.mttkrp(0);
  const std::size_t filled = engine.cached_nodes();
  EXPECT_GT(filled, 0u);
  // Invalidate everything: all cached nodes depend on modes 1 or 2.
  Rng rng(108);
  factors[1].fill_uniform(rng);
  engine.notify_update(1);
  factors[2].fill_uniform(rng);
  engine.notify_update(2);
  EXPECT_EQ(engine.cached_nodes(), 0u);
}

TEST(DtEngine, LevelCombiningStillExact) {
  // max_cached_modes = 1 forces recomputation of everything except leaves.
  EngineOptions opts;
  opts.max_cached_modes = 1;
  check_engine_against_reference(EngineKind::kDt, {4, 5, 6, 3}, 3, 2, opts);
}

TEST(DtEngine, LevelCombiningReducesMemory) {
  const std::vector<index_t> shape{8, 8, 8, 8};
  const auto t = test::random_tensor(shape, 109);
  const auto factors = test::random_factors(shape, 4, 110);
  EngineOptions full, limited;
  limited.max_cached_modes = 1;
  DtEngine a(t, factors, nullptr, full), b(t, factors, nullptr, limited);
  for (int i = 0; i < 4; ++i) {
    (void)a.mttkrp(i);
    (void)b.mttkrp(i);
  }
  EXPECT_GT(a.cached_elements(), b.cached_elements());
}

TEST(NaiveEngine, AgreesWithElementwise) {
  const std::vector<index_t> shape{4, 5, 3};
  const auto t = test::random_tensor(shape, 111);
  const auto factors = test::random_factors(shape, 2, 112);
  auto engine = make_engine(EngineKind::kNaive, t, factors);
  for (int i = 0; i < 3; ++i) {
    test::expect_matrix_near(engine->mttkrp(i),
                             tensor::mttkrp_elementwise(t, factors, i), 1e-9,
                             "naive engine");
  }
}

TEST(Engine, FactoryNames) {
  EXPECT_STREQ(engine_kind_name(EngineKind::kDt), "DT");
  EXPECT_STREQ(engine_kind_name(EngineKind::kMsdt), "MSDT");
  EXPECT_STREQ(engine_kind_name(EngineKind::kNaive), "naive");
}

}  // namespace
}  // namespace parpp::core
