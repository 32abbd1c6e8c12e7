#include <gtest/gtest.h>

#include "parpp/core/gram.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/core/msdt.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

struct MsdtCase {
  std::vector<index_t> shape;
  index_t rank;
};

void PrintTo(const MsdtCase& c, std::ostream* os) {
  *os << "shape ";
  test::print_dims(c.shape, os);
  *os << " rank " << c.rank;
}

class MsdtShapes : public ::testing::TestWithParam<MsdtCase> {};

/// MSDT must agree with DT on every MTTKRP of every sweep when both run the
/// same ALS updates — the paper's "no accuracy loss" claim. We run two
/// independent ALS loops and compare factors afterwards.
TEST_P(MsdtShapes, BitwiseAgreesWithDtUnderAls) {
  const auto& param = GetParam();
  const auto t = test::random_tensor(param.shape, 201);
  const int n = t.order();

  auto run = [&](EngineKind kind) {
    auto factors = test::random_factors(param.shape, param.rank, 202);
    auto grams = all_grams(factors);
    auto engine = make_engine(kind, t, factors);
    for (int sweep = 0; sweep < 4; ++sweep) {
      for (int i = 0; i < n; ++i) {
        const la::Matrix gamma = gamma_chain(grams, i);
        const la::Matrix m = engine->mttkrp(i);
        factors[static_cast<std::size_t>(i)] = update_factor(gamma, m);
        engine->notify_update(i);
        grams[static_cast<std::size_t>(i)] =
            la::gram(factors[static_cast<std::size_t>(i)]);
      }
    }
    return factors;
  };

  const auto f_dt = run(EngineKind::kDt);
  const auto f_msdt = run(EngineKind::kMsdt);
  for (int m = 0; m < n; ++m) {
    // Same contractions in different association orders: tolerance at the
    // round-off scale, far below any algorithmic difference.
    const double scale =
        f_dt[static_cast<std::size_t>(m)].frobenius_norm() + 1.0;
    EXPECT_LE(f_dt[static_cast<std::size_t>(m)].max_abs_diff(
                  f_msdt[static_cast<std::size_t>(m)]),
              1e-8 * scale)
        << "mode " << m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MsdtShapes,
    ::testing::Values(MsdtCase{{6, 7, 8}, 4}, MsdtCase{{4, 5, 6, 3}, 3},
                      MsdtCase{{3, 4, 3, 4, 3}, 2}, MsdtCase{{7, 6}, 3}));

/// Every MTTKRP MSDT produces matches the unamortized reference at the
/// current factor values (per-call exactness, not just end-to-end).
TEST(MsdtEngine, EveryCallMatchesReference) {
  const std::vector<index_t> shape{5, 6, 7};
  const auto t = test::random_tensor(shape, 203);
  auto factors = test::random_factors(shape, 4, 204);
  auto grams = all_grams(factors);
  MsdtEngine engine(t, factors, nullptr, {});
  for (int sweep = 0; sweep < 5; ++sweep) {
    for (int i = 0; i < 3; ++i) {
      const la::Matrix m = engine.mttkrp(i);
      const la::Matrix want = tensor::mttkrp_krp(t, factors, i);
      ASSERT_LE(m.max_abs_diff(want), 1e-9 * want.frobenius_norm() + 1e-12)
          << "sweep " << sweep << " mode " << i;
      const la::Matrix gamma = gamma_chain(grams, i);
      factors[static_cast<std::size_t>(i)] = update_factor(gamma, m);
      engine.notify_update(i);
      grams[static_cast<std::size_t>(i)] =
          la::gram(factors[static_cast<std::size_t>(i)]);
    }
  }
}

/// The headline claim: N first-level TTMs per N-1 sweeps in steady state
/// (vs 2 per sweep for DT).
TEST(MsdtEngine, TtmCountMatchesTheory) {
  for (int n : {3, 4, 5}) {
    const std::vector<index_t> shape(static_cast<std::size_t>(n), 5);
    const auto t = test::random_tensor(shape, 205);
    auto factors = test::random_factors(shape, 3, 206);
    MsdtEngine engine(t, factors, nullptr, {});
    auto run_sweep = [&] {
      for (int i = 0; i < n; ++i) {
        (void)engine.mttkrp(i);
        Rng rng(207 + i);
        factors[static_cast<std::size_t>(i)].fill_uniform(rng);
        engine.notify_update(i);
      }
    };
    // Warm up one full rotation, then measure N-1 sweeps.
    for (int s = 0; s < n; ++s) run_sweep();
    const long before = engine.ttm_count();
    for (int s = 0; s < n - 1; ++s) run_sweep();
    EXPECT_EQ(engine.ttm_count() - before, n)
        << "order " << n << ": N TTMs per N-1 sweeps";
  }
}

TEST(MsdtEngine, RobustToOutOfOrderCalls) {
  // Version stamps keep results exact even when the driver deviates from
  // the canonical sweep order (at the price of extra TTMs).
  const std::vector<index_t> shape{5, 6, 4};
  const auto t = test::random_tensor(shape, 211);
  auto factors = test::random_factors(shape, 3, 212);
  MsdtEngine engine(t, factors, nullptr, {});
  for (int mode : {2, 0, 0, 1, 2, 1, 0, 2}) {
    const la::Matrix m = engine.mttkrp(mode);
    const la::Matrix want = tensor::mttkrp_krp(t, factors, mode);
    ASSERT_LE(m.max_abs_diff(want), 1e-9 * want.frobenius_norm() + 1e-12);
    Rng rng(213 + mode);
    factors[static_cast<std::size_t>(mode)].fill_uniform(rng);
    engine.notify_update(mode);
  }
}

TEST(MsdtEngine, AuxiliaryMemoryLargerThanDt) {
  // Table I: MSDT holds an s^{N-1} R intermediate; DT only s^{N/2} R.
  const std::vector<index_t> shape{8, 8, 8, 8};
  const auto t = test::random_tensor(shape, 214);
  const auto factors = test::random_factors(shape, 4, 215);
  DtEngine dt(t, factors, nullptr, {});
  MsdtEngine msdt(t, factors, nullptr, {});
  for (int i = 0; i < 4; ++i) {
    (void)dt.mttkrp(i);
    (void)msdt.mttkrp(i);
  }
  EXPECT_GT(msdt.cached_elements(), dt.cached_elements());
}

}  // namespace
}  // namespace parpp::core
