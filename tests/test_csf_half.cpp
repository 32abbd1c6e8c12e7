// CsfLayout::kHalf — ceil(N/2) fiber trees, each serving its root mode by
// the classic upward walk and mode N-1-m by the downward leaf-scatter walk.
// The fp64 walks must agree with the dense fused reference to 1e-10 (same
// accumulation discipline as the all-modes layout), and the structural
// promises (tree count, halved pattern memory, walk_for mapping) are pinned
// here.
#include <gtest/gtest.h>
#include <omp.h>

#include <vector>

#include "parpp/core/pp_operators.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solve.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

tensor::CsfTensor make_half(const tensor::CooTensor& coo) {
  return tensor::CsfTensor(coo, tensor::CsfOptions{tensor::CsfLayout::kHalf});
}

TEST(CsfHalf, TreeCountIsCeilHalfOrder) {
  for (int order : {2, 3, 4, 5}) {
    std::vector<index_t> shape(static_cast<std::size_t>(order), 5);
    const auto coo = data::make_sparse_random(shape, 0.1, 60 + order);
    const tensor::CsfTensor half = make_half(coo);
    EXPECT_EQ(half.layout(), tensor::CsfLayout::kHalf);
    EXPECT_EQ(half.tree_count(), (order + 1) / 2) << "order " << order;
    const tensor::CsfTensor all(coo);
    EXPECT_EQ(all.tree_count(), order);
  }
}

TEST(CsfHalf, PatternMemoryShrinks) {
  // Even orders drop exactly half the trees; odd orders keep the middle
  // tree, so the ratio lands between 1/2 and (ceil(N/2))/N. Either way the
  // pattern footprint must shrink strictly and by roughly the tree ratio.
  for (int order : {3, 4, 5}) {
    std::vector<index_t> shape(static_cast<std::size_t>(order), 7);
    const auto coo = data::make_sparse_random(shape, 0.08, 70 + order);
    const tensor::CsfTensor all(coo);
    const tensor::CsfTensor half = make_half(coo);
    EXPECT_LT(half.pattern_words(), all.pattern_words());
    // Trees of the same tensor differ in size only through prefix sharing;
    // allow 30% slack around the tree-count ratio.
    const double ratio = static_cast<double>(half.pattern_words()) /
                         static_cast<double>(all.pattern_words());
    const double tree_ratio =
        static_cast<double>((order + 1) / 2) / static_cast<double>(order);
    EXPECT_LT(ratio, tree_ratio * 1.3) << "order " << order;
  }
}

TEST(CsfHalf, WalkForMapsEveryMode) {
  // Order 4: trees {0, 1}; modes 0/1 are roots, 3 is tree 0's leaf, 2 is
  // tree 1's leaf.
  const auto coo4 = data::make_sparse_random({6, 5, 4, 5}, 0.08, 80);
  const tensor::CsfTensor h4 = make_half(coo4);
  for (int mode : {0, 1}) {
    const auto wk = h4.walk_for(mode);
    EXPECT_EQ(wk.tree_index, mode);
    EXPECT_FALSE(wk.leaf);
    EXPECT_EQ(wk.tree->mode_order.front(), mode);
  }
  for (int mode : {2, 3}) {
    const auto wk = h4.walk_for(mode);
    EXPECT_EQ(wk.tree_index, 3 - mode);
    EXPECT_TRUE(wk.leaf);
    EXPECT_EQ(wk.tree->mode_order.back(), mode);
  }

  // Order 3: the middle tree (mode 1) serves only its root.
  const auto coo3 = data::make_sparse_random({6, 5, 4}, 0.1, 81);
  const tensor::CsfTensor h3 = make_half(coo3);
  EXPECT_EQ(h3.tree_count(), 2);
  EXPECT_FALSE(h3.walk_for(0).leaf);
  EXPECT_FALSE(h3.walk_for(1).leaf);
  EXPECT_EQ(h3.walk_for(1).tree_index, 1);
  const auto wk2 = h3.walk_for(2);
  EXPECT_TRUE(wk2.leaf);
  EXPECT_EQ(wk2.tree_index, 0);
}

TEST(CsfHalf, TreeAccessorRejectsUpperModes) {
  const auto coo = data::make_sparse_random({6, 5, 4, 5}, 0.08, 82);
  const tensor::CsfTensor half = make_half(coo);
  EXPECT_NO_THROW((void)half.tree(0));
  EXPECT_NO_THROW((void)half.tree(1));
  EXPECT_THROW((void)half.tree(2), parpp::error);
  EXPECT_THROW((void)half.tree(3), parpp::error);
}

/// Checks `rank` and the register-blocked ranks 8, 16 and 32.
void expect_half_matches_dense(const tensor::CooTensor& coo, index_t rank,
                               std::uint64_t seed) {
  const tensor::CsfTensor half = make_half(coo);
  const tensor::DenseTensor dense = coo.densify();
  for (index_t r : {rank, index_t{8}, index_t{16}, index_t{32}}) {
    SCOPED_TRACE(::testing::Message() << "rank " << r);
    const auto factors = test::random_factors(coo.shape(), r, seed);
    for (int mode = 0; mode < coo.order(); ++mode) {
      const la::Matrix ref = tensor::mttkrp_fused(dense, factors, mode);
      test::expect_matrix_near(tensor::mttkrp_csf(half, factors, mode), ref,
                               1e-10, "half-layout CSF vs dense fused");
    }
  }
}

TEST(CsfHalf, MttkrpMatchesDenseFusedOrders2To5AllModes) {
  expect_half_matches_dense(data::make_sparse_random({12, 9}, 0.2, 83), 5,
                            183);
  expect_half_matches_dense(data::make_sparse_random({9, 8, 7}, 0.15, 84), 6,
                            184);
  expect_half_matches_dense(data::make_sparse_random({7, 5, 4, 6}, 0.08, 85),
                            5, 185);
  expect_half_matches_dense(
      data::make_sparse_random({5, 4, 3, 4, 5}, 0.05, 86), 4, 186);
}

TEST(CsfHalf, LeafWalkSequentialAndParallelAgree) {
  // The leaf-scatter walk merges per-thread output slabs in thread order;
  // vs the dense reference both the 1-thread and team paths must hold the
  // 1e-10 bound. (Team size is whatever OpenMP gives this process — the
  // point is exercising the merge path when it is parallel.)
  const auto coo = data::make_sparse_random({30, 4, 28}, 0.05, 87);
  const tensor::CsfTensor half = make_half(coo);
  const tensor::DenseTensor dense = coo.densify();
  const auto factors = test::random_factors(coo.shape(), 8, 187);
  const int leaf_mode = 2;
  ASSERT_TRUE(half.walk_for(leaf_mode).leaf);
  const la::Matrix ref = tensor::mttkrp_fused(dense, factors, leaf_mode);
  test::expect_matrix_near(tensor::mttkrp_csf(half, factors, leaf_mode), ref,
                           1e-10, "leaf-scatter walk");
}

TEST(CsfHalf, PairOperatorsRequireAllModesLayout) {
  const auto coo = data::make_sparse_random({8, 7, 6}, 0.1, 89);
  const tensor::CsfTensor half = make_half(coo);
  const auto factors = test::random_factors(coo.shape(), 4, 189);
  EXPECT_THROW(core::PpOperators(half, factors), parpp::error);
  tensor::DenseTensor out;
  EXPECT_THROW(tensor::pair_mttkrp_csf_into(half, factors, 0, 1, out),
               parpp::error);
}

TEST(CsfHalf, SolveMatchesAllModesLayout) {
  // Same nonzeros, both layouts, a fixed sweep budget: the ALS iteration is
  // layout-blind (the walks differ only in traversal order), so the final
  // fitness must agree to solver-noise precision.
  const auto data = data::make_sparse_lowrank({14, 12, 10, 8}, 4, 0.05, 90);
  const tensor::CsfTensor all(data.tensor);
  const tensor::CsfTensor half = make_half(data.tensor);

  solver::SolverSpec spec;
  spec.method = solver::Method::kAls;
  spec.rank = 4;
  spec.seed = 11;
  spec.engine = core::EngineKind::kSparse;
  spec.stopping.max_sweeps = 20;
  spec.stopping.fitness_tol = 0.0;

  const auto r_all = parpp::solve(all, spec);
  const auto r_half = parpp::solve(half, spec);
  EXPECT_EQ(r_all.sweeps, r_half.sweeps);
  // The leaf walk reassociates the per-nonzero sums, so roundoff compounds
  // across sweeps — 1e-7 is far below any solver-quality difference.
  EXPECT_NEAR(r_all.fitness, r_half.fitness, 1e-7);
}

TEST(CsfHalf, SequentialAlsIsBitwiseReproducibleOnFourThreads) {
  // The leaf walk merges per-thread output slabs, so each slab must sum the
  // same roots in the same order on every run: 600 root slices are many
  // more than one 32-root chunk per thread, so a schedule that hands roots
  // out dynamically would change the rounding from run to run.
  const auto data = data::make_sparse_lowrank({600, 20, 30}, 4, 0.02, 91);
  const tensor::CsfTensor half = make_half(data.tensor);

  solver::SolverSpec spec;
  spec.rank = 4;
  spec.seed = 12;
  spec.engine = core::EngineKind::kSparse;
  spec.stopping.max_sweeps = 5;
  spec.stopping.fitness_tol = -1.0;

  const int ambient = omp_get_max_threads();
  omp_set_num_threads(4);
  std::vector<solver::SolveReport> runs;
  for (int run = 0; run < 3; ++run) runs.push_back(parpp::solve(half, spec));
  omp_set_num_threads(ambient);

  for (std::size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].factors.size(), runs[0].factors.size());
    for (std::size_t m = 0; m < runs[0].factors.size(); ++m) {
      EXPECT_EQ(runs[run].factors[m].max_abs_diff(runs[0].factors[m]), 0.0)
          << "run " << run << " mode " << m;
    }
  }
}

}  // namespace
}  // namespace parpp
