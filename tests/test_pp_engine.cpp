#include <gtest/gtest.h>

#include <cmath>

#include "parpp/core/gram.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "test_util.hpp"

namespace parpp::core {
namespace {

struct PpSetup {
  tensor::DenseTensor t;
  std::vector<la::Matrix> a_p;       // snapshot
  std::vector<la::Matrix> factors;   // current = a_p + perturbation
  std::vector<la::Matrix> grams;
  PpOperators ops;

  PpSetup(const std::vector<index_t>& shape, index_t rank, double delta,
          std::uint64_t seed)
      : t(test::random_tensor(shape, seed)),
        a_p(test::random_factors(shape, rank, seed + 1)),
        factors(a_p),
        ops(t, a_p) {
    ops.build();
    Rng rng(seed + 2);
    for (auto& f : factors) {
      la::Matrix noise(f.rows(), f.cols());
      noise.fill_normal(rng);
      f.axpy(delta, noise);
    }
    grams = all_grams(factors);
  }
};

TEST(PpApprox, ExactAtZeroPerturbation) {
  PpSetup s({5, 6, 7}, 3, 0.0, 401);
  PpApprox approx(s.ops, s.factors, s.a_p, s.grams);
  for (int n = 0; n < 3; ++n) {
    test::expect_matrix_near(approx.mttkrp_approx(n), s.ops.mttkrp_p(n), 1e-12,
                             "dA = 0 => ~M == M_p");
  }
}

/// First+second-order PP error must shrink faster than linearly in the
/// perturbation size: halving delta should shrink the error by ~4x (second
/// order) — we assert at least 3x to allow round-off.
TEST(PpApprox, ErrorIsSecondOrderInPerturbation) {
  auto max_error = [&](double delta) {
    PpSetup s({6, 5, 7}, 3, delta, 402);
    PpApprox approx(s.ops, s.factors, s.a_p, s.grams);
    double err = 0.0;
    for (int n = 0; n < 3; ++n) {
      const la::Matrix want = tensor::mttkrp_krp(s.t, s.factors, n);
      const la::Matrix got = approx.mttkrp_approx(n);
      err = std::max(err, got.max_abs_diff(want) / want.frobenius_norm());
    }
    return err;
  };
  const double e1 = max_error(2e-2);
  const double e2 = max_error(1e-2);
  EXPECT_GT(e1, 0.0);
  EXPECT_LT(e2, e1 / 3.0);
}

TEST(PpApprox, OrderFourErrorAlsoSecondOrder) {
  auto max_error = [&](double delta) {
    PpSetup s({4, 5, 3, 4}, 2, delta, 403);
    PpApprox approx(s.ops, s.factors, s.a_p, s.grams);
    double err = 0.0;
    for (int n = 0; n < 4; ++n) {
      const la::Matrix want = tensor::mttkrp_krp(s.t, s.factors, n);
      err = std::max(err, approx.mttkrp_approx(n).max_abs_diff(want) /
                              want.frobenius_norm());
    }
    return err;
  };
  EXPECT_LT(max_error(5e-3), max_error(1e-2) / 3.0);
}

/// V(n) is derived from the ALS fixed-point structure, so its benefit is
/// guaranteed around a near-converged snapshot (the regime where Algorithm
/// 2 activates PP): warm-start ALS, perturb, and compare errors.
TEST(PpApprox, SecondOrderTermReducesErrorNearConvergence) {
  const auto t = test::low_rank_tensor({8, 8, 8, 8}, 3, 404);
  solver::SolverSpec warm;
  warm.rank = 3;
  warm.stopping.max_sweeps = 15;
  warm.stopping.fitness_tol = 0.0;
  warm.seed = 405;
  warm.engine = EngineKind::kDt;
  auto a_p = parpp::solve(t, warm).factors;
  auto factors = a_p;
  Rng rng(406);
  for (auto& f : factors) {
    la::Matrix noise(f.rows(), f.cols());
    noise.fill_normal(rng);
    f.axpy(2e-2, noise);
  }
  PpOperators ops(t, a_p);
  ops.build();
  const auto grams = all_grams(factors);
  PpApprox with(ops, factors, a_p, grams);
  PpApprox without(ops, factors, a_p, grams);
  without.set_second_order(false);
  double err_with = 0.0, err_without = 0.0;
  for (int n = 0; n < 4; ++n) {
    const la::Matrix want = tensor::mttkrp_krp(t, factors, n);
    err_with = std::max(err_with, with.mttkrp_approx(n).max_abs_diff(want));
    err_without =
        std::max(err_without, without.mttkrp_approx(n).max_abs_diff(want));
  }
  EXPECT_LT(err_with, 0.5 * err_without);
}

TEST(PpApprox, RefreshTracksFactorChanges) {
  PpSetup s({5, 5, 5}, 2, 1e-2, 405);
  PpApprox approx(s.ops, s.factors, s.a_p, s.grams);
  // Change one factor, refresh, and verify the approximation uses the new
  // dA: it must match a freshly-constructed PpApprox.
  Rng rng(406);
  la::Matrix bump(s.factors[1].rows(), s.factors[1].cols());
  bump.fill_normal(rng);
  s.factors[1].axpy(5e-3, bump);
  s.grams[1] = la::gram(s.factors[1]);
  approx.refresh_mode(1);
  PpApprox fresh(s.ops, s.factors, s.a_p, s.grams);
  for (int n = 0; n < 3; ++n) {
    test::expect_matrix_near(approx.mttkrp_approx(n), fresh.mttkrp_approx(n),
                             1e-12, "refresh == rebuild");
  }
}

TEST(PpApprox, DFactorAccessor) {
  PpSetup s({4, 4, 4}, 2, 1e-2, 407);
  PpApprox approx(s.ops, s.factors, s.a_p, s.grams);
  for (int i = 0; i < 3; ++i) {
    la::Matrix want = s.factors[static_cast<std::size_t>(i)];
    want.axpy(-1.0, s.a_p[static_cast<std::size_t>(i)]);
    test::expect_matrix_near(approx.d_factor(i), want, 0.0, "dA accessor");
  }
}

}  // namespace
}  // namespace parpp::core
