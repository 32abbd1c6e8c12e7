#include <gtest/gtest.h>

#include <cmath>

#include "parpp/core/cp_als.hpp"
#include "parpp/mpsim/cost.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/util/cost_model.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

TEST(CostTally, SecondsCombineTerms) {
  CostParams p;
  p.alpha = 1.0;
  p.beta = 0.1;
  p.gamma = 0.01;
  p.nu = 0.001;
  CostTally t;
  t.add_collective(2.0, 10.0);
  t.add_compute(100.0, 1000.0);
  EXPECT_DOUBLE_EQ(t.seconds(p), 2.0 + 1.0 + 1.0 + 1.0);
}

TEST(CostCounter, PerClassAccounting) {
  mpsim::CostCounter c;
  c.charge(mpsim::Collective::kAllGather, 4, 100.0);
  c.charge(mpsim::Collective::kAllReduce, 4, 50.0);
  EXPECT_DOUBLE_EQ(c.by_class(mpsim::Collective::kAllGather).messages, 2.0);
  EXPECT_DOUBLE_EQ(c.by_class(mpsim::Collective::kAllGather).words_horizontal,
                   100.0);
  EXPECT_DOUBLE_EQ(c.by_class(mpsim::Collective::kAllReduce).messages, 4.0);
  EXPECT_DOUBLE_EQ(c.by_class(mpsim::Collective::kAllReduce).words_horizontal,
                   100.0);
  EXPECT_DOUBLE_EQ(c.total().messages, 6.0);
  EXPECT_DOUBLE_EQ(c.total().words_horizontal, 200.0);
}

TEST(CostCounter, NoChargeForSingleRank) {
  mpsim::CostCounter c;
  c.charge(mpsim::Collective::kBcast, 1, 1000.0);
  EXPECT_DOUBLE_EQ(c.total().messages, 0.0);
  EXPECT_DOUBLE_EQ(c.total().words_horizontal, 0.0);
}

TEST(TableOneModel, ClosedForms) {
  TableOneModel m{3, 100, 10, 8};
  EXPECT_DOUBLE_EQ(m.dt_seq_flops(), 4.0 * 1e6 * 10);
  EXPECT_DOUBLE_EQ(m.msdt_seq_flops(), 3.0 * 1e6 * 10);  // 2N/(N-1) = 3
  EXPECT_DOUBLE_EQ(m.pp_init_seq_flops(), m.dt_seq_flops());
  EXPECT_DOUBLE_EQ(m.pp_approx_seq_flops(),
                   2.0 * 9 * (100.0 * 100.0 * 10.0 + 100.0));
  EXPECT_DOUBLE_EQ(m.dt_local_flops(), m.dt_seq_flops() / 8.0);
}

TEST(TableOneModel, MsdtDtRatioIsTheoretical) {
  for (int n : {3, 4, 5, 6}) {
    TableOneModel m{n, 50, 8, 4};
    EXPECT_NEAR(m.dt_seq_flops() / m.msdt_seq_flops(),
                2.0 * (n - 1) / static_cast<double>(n), 1e-12);
  }
}

/// Measured TTM flops of the engines match the Table I leading terms.
TEST(TableOneModel, MeasuredFlopsMatchDt) {
  const index_t s = 12, r = 4;
  const std::vector<index_t> shape{s, s, s};
  const auto t = test::random_tensor(shape, 1001);
  solver::SolverSpec spec;
  spec.rank = r;
  spec.stopping.max_sweeps = 4;
  spec.stopping.fitness_tol = 0.0;
  spec.engine = core::EngineKind::kDt;
  const auto result = parpp::solve(t, spec);
  const TableOneModel model{3, s, r, 1};
  const double per_sweep = result.profile.flops(Kernel::kTTM) / 4.0;
  // TTM flops per sweep == 2 first-level TTMs == 4 s^3 R exactly.
  EXPECT_NEAR(per_sweep, model.dt_seq_flops(), 1e-6);
}

TEST(TableOneModel, MeasuredFlopsMatchMsdt) {
  const index_t s = 12, r = 4;
  const std::vector<index_t> shape{s, s, s};
  const auto t = test::random_tensor(shape, 1002);
  solver::SolverSpec spec;
  spec.rank = r;
  // A multiple of N-1 plus warmup: rotation-aligned.
  spec.stopping.max_sweeps = 9;
  spec.stopping.fitness_tol = 0.0;
  spec.engine = core::EngineKind::kMsdt;
  const auto result = parpp::solve(t, spec);
  const TableOneModel model{3, s, r, 1};
  const double per_sweep = result.profile.flops(Kernel::kTTM) / 9.0;
  // Steady state: 2N/(N-1) s^N R = 3 s^3 R; allow the warm-up extra TTM.
  EXPECT_LT(per_sweep, model.msdt_seq_flops() * 1.15);
  EXPECT_GT(per_sweep, model.msdt_seq_flops() * 0.95);
}

TEST(Profile, DeltaAndAccumulate) {
  Profile a;
  a.add(Kernel::kTTM, 1.0, 100.0);
  Profile b = a;
  b.add(Kernel::kMTTV, 0.5, 50.0);
  const Profile d = b.delta_since(a);
  EXPECT_DOUBLE_EQ(d.seconds(Kernel::kTTM), 0.0);
  EXPECT_DOUBLE_EQ(d.seconds(Kernel::kMTTV), 0.5);
  Profile c;
  c.accumulate(a);
  c.accumulate(d);
  EXPECT_DOUBLE_EQ(c.total_seconds(), b.total_seconds());
  EXPECT_DOUBLE_EQ(c.total_flops(), 150.0);
}

TEST(Profile, SummaryNamesCategories) {
  Profile p;
  p.add(Kernel::kTTM, 1.25);
  p.add(Kernel::kSolve, 0.5);
  const std::string s = p.summary();
  EXPECT_NE(s.find("TTM"), std::string::npos);
  EXPECT_NE(s.find("solve"), std::string::npos);
}

}  // namespace
}  // namespace parpp
