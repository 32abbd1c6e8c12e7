// Sparse pairwise perturbation: the CSF pair-operator walk against the COO
// and dense references, sparse-vs-densified PP solves, and the
// allocation-free rebuild guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "parpp/core/pp_operators.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

std::vector<la::Matrix> factors_for(const tensor::CsfTensor& t, index_t rank,
                                    std::uint64_t seed) {
  std::vector<la::Matrix> f;
  for (int m = 0; m < t.order(); ++m)
    f.push_back(test::random_matrix(t.extent(m), rank, seed + m));
  return f;
}

TEST(SparsePairOp, CsfWalkMatchesCooReference) {
  for (const auto& shape :
       {std::vector<index_t>{9, 8, 7}, std::vector<index_t>{6, 5, 7, 4}}) {
    const tensor::CooTensor coo = data::make_sparse_random(shape, 0.08, 13);
    const tensor::CsfTensor csf(coo);
    const int n = csf.order();
    // Rank 5 takes the generic walk; 8, 16 and 32 the register blocks.
    for (index_t rank : {5, 8, 16, 32}) {
      SCOPED_TRACE(::testing::Message() << "rank " << rank);
      const auto factors = factors_for(csf, rank, 7);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          if (i == j) continue;
          tensor::DenseTensor got;
          tensor::pair_mttkrp_csf_into(csf, factors, i, j, got);
          const tensor::DenseTensor want =
              tensor::pair_mttkrp_coo(coo, factors, i, j);
          test::expect_tensor_near(got, want, 1e-12, "pair op");
        }
      }
    }
  }
}

TEST(SparsePpOperators, MatchDenselyBuiltOperators) {
  const tensor::CooTensor coo = data::make_sparse_random({8, 7, 9}, 0.1, 5);
  const tensor::CsfTensor csf(coo);
  const tensor::DenseTensor dense = coo.densify();
  const auto factors = factors_for(csf, 4, 11);

  core::PpOperators sparse_ops(csf, factors);
  core::PpOperators dense_ops(dense, factors);
  sparse_ops.build();
  dense_ops.build();
  EXPECT_TRUE(sparse_ops.sparse());
  EXPECT_FALSE(dense_ops.sparse());

  const int n = csf.order();
  for (int i = 0; i < n; ++i) {
    // Leaves are the exact MTTKRPs; both storages must agree.
    test::expect_matrix_near(sparse_ops.mttkrp_p(i), dense_ops.mttkrp_p(i),
                             1e-11, "M_p leaf");
    for (int j = i + 1; j < n; ++j) {
      const auto& sp = sparse_ops.pair_op(i, j);
      const auto& dp = dense_ops.pair_op(i, j);
      ASSERT_EQ(sp.modes, (std::vector<int>{i, j}));
      // The dense build may store the pair with either mode order; compare
      // elementwise through the mode maps.
      ASSERT_EQ(dp.modes.size(), 2u);
      const bool flipped = dp.modes != sp.modes;
      for (index_t x = 0; x < sp.data.extent(0); ++x) {
        for (index_t y = 0; y < sp.data.extent(1); ++y) {
          for (index_t r = 0; r < sp.data.extent(2); ++r) {
            const std::vector<index_t> sidx{x, y, r};
            const std::vector<index_t> didx =
                flipped ? std::vector<index_t>{y, x, r} : sidx;
            EXPECT_NEAR(sp.data.at(sidx), dp.data.at(didx), 1e-11)
                << "pair (" << i << "," << j << ") at " << x << "," << y
                << "," << r;
          }
        }
      }
    }
  }
}

TEST(SparsePpOperators, RebuildsAreAllocationFree) {
  const tensor::CooTensor coo = data::make_sparse_random({12, 11, 10}, 0.05, 9);
  const tensor::CsfTensor csf(coo);
  auto factors = factors_for(csf, 4, 3);

  core::PpOperators ops(csf, factors);
  ops.build();
  const std::size_t bytes = ops.workspace_bytes();
  const std::size_t allocs = ops.workspace_allocations();
  for (int rebuild = 0; rebuild < 3; ++rebuild) {
    // Perturb the factors (shapes invariant) and rebuild, as the PP phase
    // does at every re-initialization.
    for (auto& f : factors) f.scale(1.0 + 1e-3);
    ops.build();
    EXPECT_EQ(ops.workspace_bytes(), bytes) << "rebuild " << rebuild;
    EXPECT_EQ(ops.workspace_allocations(), allocs) << "rebuild " << rebuild;
  }
}

TEST(SparsePp, SequentialSolveTracksDensifiedRun) {
  const auto gen = data::make_sparse_lowrank({16, 15, 14}, 4, 0.08, 23);
  const tensor::CsfTensor csf(gen.tensor);
  const tensor::DenseTensor dense = gen.tensor.densify();

  solver::SolverSpec spec;
  spec.method = solver::Method::kPp;
  spec.rank = 4;
  spec.stopping.max_sweeps = 30;
  // Fixed budget keeps both storages on one trajectory.
  spec.stopping.fitness_tol = 0.0;
  spec.seed = 7;

  const solver::SolveReport sparse_run = parpp::solve(csf, spec);
  const solver::SolveReport dense_run = parpp::solve(dense, spec);

  ASSERT_EQ(sparse_run.history.size(), dense_run.history.size());
  for (std::size_t s = 0; s < sparse_run.history.size(); ++s) {
    EXPECT_EQ(sparse_run.history[s].phase, dense_run.history[s].phase)
        << "sweep " << s;
    EXPECT_NEAR(sparse_run.history[s].fitness, dense_run.history[s].fitness,
                1e-10)
        << "sweep " << s;
  }
  EXPECT_EQ(sparse_run.num_pp_init, dense_run.num_pp_init);
  EXPECT_EQ(sparse_run.num_pp_approx, dense_run.num_pp_approx);
  EXPECT_GT(sparse_run.num_pp_approx, 0)
      << "the PP phase never activated — the comparison is vacuous";
  EXPECT_NEAR(sparse_run.fitness, dense_run.fitness, 1e-10);
}

TEST(SparsePp, FacadeRunsSparsePpAndPpNncp) {
  const auto gen = data::make_sparse_lowrank({14, 13, 12}, 3, 0.08, 41);
  const tensor::CsfTensor csf(gen.tensor);

  solver::SolverSpec spec;
  spec.method = solver::Method::kPp;
  spec.rank = 3;
  spec.seed = 5;
  spec.stopping.max_sweeps = 200;
  spec.stopping.fitness_tol = 1e-9;
  const auto pp_report = parpp::solve(csf, spec);
  EXPECT_GT(pp_report.fitness, 1.0 - 1e-5);

  spec.method = solver::Method::kPpNncp;
  const auto ppnn_report = parpp::solve(csf, spec);
  EXPECT_GT(ppnn_report.fitness, 0.9);
  for (const auto& f : ppnn_report.factors)
    for (index_t i = 0; i < f.rows(); ++i)
      for (index_t j = 0; j < f.cols(); ++j) EXPECT_GE(f(i, j), 0.0);
}

TEST(SparsePp, SteadyStateSweepsNeverDensify) {
  // Same workspace-flatness proof as the ALS test, on the PP method: the
  // thread-default arena (the only place a sequential sparse solve could
  // lease tensor-sized scratch from) must stop growing after the second
  // sweep and stay far below the dense footprint.
  const auto gen = data::make_sparse_lowrank({48, 48, 48}, 4, 0.01, 5);
  const tensor::CsfTensor csf(gen.tensor);
  const double dense_bytes = 48.0 * 48.0 * 48.0 * sizeof(double);

  auto& ws = util::KernelWorkspace::thread_default();
  ws.trim();
  const std::size_t bytes_before = ws.total_bytes();

  solver::SolverSpec spec;
  spec.method = solver::Method::kPp;
  spec.rank = 4;
  spec.seed = 7;
  spec.stopping.max_sweeps = 40;
  spec.stopping.fitness_tol = 1e-12;
  std::size_t steady_bytes = 0;
  int sweeps_seen = 0;
  bool saw_pp_approx = false;
  spec.observer = [&](const core::SweepRecord& rec,
                      const std::vector<la::Matrix>&) {
    ++sweeps_seen;
    // The first PP-approximated sweep leases the correction scratch once;
    // from then on — PP or regular — the arena must hold flat.
    if (!saw_pp_approx) {
      if (rec.phase == "pp-approx") {
        saw_pp_approx = true;
        steady_bytes = ws.total_bytes();
      }
    } else {
      EXPECT_EQ(ws.total_bytes(), steady_bytes)
          << rec.phase << " sweep " << sweeps_seen;
    }
    return solver::ObserverAction::kContinue;
  };
  const auto report = parpp::solve(csf, spec);

  EXPECT_TRUE(saw_pp_approx) << "the PP phase never activated";
  EXPECT_GE(sweeps_seen, 3);
  EXPECT_GT(report.fitness, 0.9);
  // PP legitimately carries O(s^2 R) auxiliary scratch for the pair
  // operator corrections (Table I), so the bound is looser than the plain
  // ALS test's — but still far below materializing the dense tensor.
  EXPECT_LT(static_cast<double>(ws.total_bytes() - bytes_before),
            dense_bytes / 2);
}

}  // namespace
}  // namespace parpp
