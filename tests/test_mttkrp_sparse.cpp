// Sparse MTTKRP (COO and CSF paths) vs the dense fused reference, plus
// workspace/allocation behavior of the sparse engine.
#include <gtest/gtest.h>

#include <vector>

#include "parpp/core/sparse_engine.hpp"
#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

/// Property: on the densified tensor, both sparse paths must match the
/// dense fused kernel for every mode.
/// Checks `rank` and the register-blocked ranks 8, 16 and 32.
void expect_sparse_matches_dense(const tensor::CooTensor& coo,
                                 index_t rank, std::uint64_t seed) {
  const tensor::CsfTensor csf(coo);
  const tensor::DenseTensor dense = coo.densify();
  for (index_t r : {rank, index_t{8}, index_t{16}, index_t{32}}) {
    SCOPED_TRACE(::testing::Message() << "rank " << r);
    const auto factors = test::random_factors(coo.shape(), r, seed);
    for (int mode = 0; mode < coo.order(); ++mode) {
      const la::Matrix ref = tensor::mttkrp_fused(dense, factors, mode);
      test::expect_matrix_near(tensor::mttkrp_coo(coo, factors, mode), ref,
                               1e-10, "COO vs dense fused");
      test::expect_matrix_near(tensor::mttkrp_csf(csf, factors, mode), ref,
                               1e-10, "CSF vs dense fused");
    }
  }
}

TEST(MttkrpSparse, MatchesDenseFusedOrders3To5AllModes) {
  expect_sparse_matches_dense(
      data::make_sparse_random({9, 8, 7}, 0.15, 5), 6, 105);
  expect_sparse_matches_dense(
      data::make_sparse_random({7, 5, 4, 6}, 0.08, 6), 5, 106);
  expect_sparse_matches_dense(
      data::make_sparse_random({5, 4, 3, 4, 5}, 0.05, 7), 4, 107);
}

TEST(MttkrpSparse, Order2MatchesDenseFused) {
  expect_sparse_matches_dense(data::make_sparse_random({12, 9}, 0.2, 8), 5,
                              108);
}

TEST(MttkrpSparse, DuplicateCooInputCoalesces) {
  // Push every entry of a random sparse tensor twice, in scrambled order,
  // plus some explicit zeros; after coalesce() the MTTKRP must equal the
  // dense reference of the doubled tensor.
  const tensor::CooTensor base = data::make_sparse_random({8, 6, 7}, 0.1, 9);
  tensor::CooTensor doubled(base.shape());
  std::vector<index_t> tuple(3);
  for (index_t pass = 0; pass < 2; ++pass) {
    for (index_t e = base.nnz(); e-- > 0;) {
      for (int m = 0; m < 3; ++m) tuple[static_cast<std::size_t>(m)] =
          base.index(e, m);
      doubled.push(tuple, base.value(e));
    }
  }
  tuple = {0, 0, 0};
  doubled.push(tuple, 0.0);  // explicit zero entry
  doubled.coalesce();
  expect_sparse_matches_dense(doubled, 5, 109);

  // And the coalesced values really are the sums.
  const tensor::DenseTensor dd = doubled.densify();
  const tensor::DenseTensor bd = base.densify();
  for (index_t i = 0; i < dd.size(); ++i)
    EXPECT_NEAR(dd[i], 2.0 * bd[i], 1e-14);
}

TEST(MttkrpSparse, ExactlyLowRankTensorAllModes) {
  // Structured (blocky) sparsity exercises skewed fiber trees.
  const auto gen = data::make_sparse_lowrank({10, 8, 9, 7}, 3, 0.02, 23);
  expect_sparse_matches_dense(gen.tensor, 4, 110);
}

TEST(MttkrpSparse, CsfIntoSteadyStateIsAllocationFree) {
  const tensor::CooTensor coo = data::make_sparse_random({16, 15, 14}, 0.05, 4);
  const tensor::CsfTensor csf(coo);
  const auto factors = test::random_factors(coo.shape(), 8, 42);

  util::KernelWorkspace ws;
  la::Matrix out;
  for (int mode = 0; mode < 3; ++mode)
    tensor::mttkrp_csf_into(csf, factors, mode, out, nullptr, &ws);
  const std::size_t bytes = ws.total_bytes();
  const std::size_t allocs = ws.allocation_count();
  for (int sweep = 0; sweep < 5; ++sweep) {
    for (int mode = 0; mode < 3; ++mode)
      tensor::mttkrp_csf_into(csf, factors, mode, out, nullptr, &ws);
  }
  EXPECT_EQ(ws.total_bytes(), bytes);
  EXPECT_EQ(ws.allocation_count(), allocs);
}

TEST(SparseEngine, MatchesKernelAndNeverApproachesDenseFootprint) {
  const tensor::CooTensor coo = data::make_sparse_random({32, 30, 28}, 0.02, 13);
  const tensor::CsfTensor csf(coo);
  auto factors = test::random_factors(coo.shape(), 10, 77);

  core::SparseEngine engine(csf, factors, nullptr);
  EXPECT_EQ(engine.name(), "sparse");
  for (int mode = 0; mode < 3; ++mode) {
    test::expect_matrix_near(engine.mttkrp(mode),
                             tensor::mttkrp_csf(csf, factors, mode), 0.0,
                             "engine vs kernel");
    engine.notify_update(mode);
  }

  // The no-densification guarantee, as counters: the engine's arena holds
  // only per-thread accumulator scratch — far below the densified tensor —
  // and steady-state sweeps stop touching the allocator entirely.
  const std::size_t bytes = engine.workspace().total_bytes();
  const std::size_t allocs = engine.workspace().allocation_count();
  const std::size_t dense_bytes =
      static_cast<std::size_t>(32 * 30 * 28) * sizeof(double);
  EXPECT_LT(bytes, dense_bytes / 4);
  for (int sweep = 0; sweep < 5; ++sweep)
    for (int mode = 0; mode < 3; ++mode) (void)engine.mttkrp(mode);
  EXPECT_EQ(engine.workspace().total_bytes(), bytes);
  EXPECT_EQ(engine.workspace().allocation_count(), allocs);
}

TEST(SparseEngine, DenseFactoryRejectsSparseKind) {
  const tensor::DenseTensor dense = test::random_tensor({4, 4, 4}, 3);
  const auto factors = test::random_factors(dense.shape(), 3, 4);
  EXPECT_THROW((void)core::make_engine(core::EngineKind::kSparse, dense,
                                       factors),
               parpp::error);
}

TEST(SparseEngine, CsfFactoryResolvesEveryKindToSparse) {
  const tensor::CooTensor coo = data::make_sparse_random({6, 5, 7}, 0.1, 2);
  const tensor::CsfTensor csf(coo);
  const auto factors = test::random_factors(coo.shape(), 4, 5);
  for (core::EngineKind kind :
       {core::EngineKind::kNaive, core::EngineKind::kDt,
        core::EngineKind::kMsdt, core::EngineKind::kSparse}) {
    const auto engine = core::make_engine(kind, csf, factors);
    EXPECT_EQ(engine->name(), "sparse");
  }
}

}  // namespace
}  // namespace parpp
