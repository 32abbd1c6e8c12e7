// CSF tiling: tile-structure invariants, tiled-walk correctness against the
// fiber walk and the dense reference (including forced multi-thread teams
// on short root modes), allocation-free steady state, and team-sized
// workspace slabs.
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

void expect_valid_tiling(const tensor::CsfTensor& t) {
  for (int mode = 0; mode < t.order(); ++mode) {
    const auto& tree = t.tree(mode);
    const auto level1 = static_cast<index_t>(tree.fids[1].size());
    const index_t tiles = tree.tile_count();
    ASSERT_GE(tiles, 0) << "mode " << mode;
    ASSERT_EQ(tree.tile_root.size(), static_cast<std::size_t>(tiles));
    ASSERT_EQ(tree.tile_root_end.size(), static_cast<std::size_t>(tiles));
    if (tiles == 0) {
      EXPECT_EQ(level1, 0);
      continue;
    }
    EXPECT_EQ(tree.tile_ptr.front(), 0);
    EXPECT_EQ(tree.tile_ptr.back(), level1);
    const auto& root_ptr = tree.fptr.front();
    for (index_t tt = 0; tt < tiles; ++tt) {
      const index_t k0 = tree.tile_ptr[static_cast<std::size_t>(tt)];
      const index_t k1 = tree.tile_ptr[static_cast<std::size_t>(tt) + 1];
      EXPECT_LT(k0, k1) << "empty tile " << tt << " mode " << mode;
      const index_t rb = tree.tile_root[static_cast<std::size_t>(tt)];
      const index_t re = tree.tile_root_end[static_cast<std::size_t>(tt)];
      EXPECT_LT(rb, re);
      // The recorded root range is exactly the set of fibers whose level-1
      // children intersect [k0, k1).
      EXPECT_LE(root_ptr[static_cast<std::size_t>(rb)], k0);
      EXPECT_GT(root_ptr[static_cast<std::size_t>(rb) + 1], k0);
      EXPECT_LT(root_ptr[static_cast<std::size_t>(re) - 1], k1);
      EXPECT_GE(root_ptr[static_cast<std::size_t>(re)], k1);
    }
  }
}

TEST(CsfTiling, TileStructureCoversEveryTree) {
  expect_valid_tiling(
      tensor::CsfTensor(data::make_sparse_random({9, 8, 7}, 0.15, 5)));
  expect_valid_tiling(
      tensor::CsfTensor(data::make_sparse_random({40, 6}, 0.3, 6)));
  expect_valid_tiling(tensor::CsfTensor(
      data::make_sparse_powerlaw({4, 50, 50}, 0.1, 1.5, 7).tensor));
  expect_valid_tiling(tensor::CsfTensor(
      data::make_sparse_random({5, 4, 3, 4, 5}, 0.05, 8)));
}

TEST(CsfTiling, ShortRootModeSplitsIntoMultipleTiles) {
  // 4 root fibers but far more than kTileLeafTarget nonzeros: the fiber
  // schedule sees 4 tasks, the tiling must expose real parallelism.
  const auto gen = data::make_sparse_powerlaw({4, 64, 64}, 0.7, 0.3, 11, 0);
  const tensor::CsfTensor csf(gen.tensor);
  ASSERT_GT(csf.nnz(), 2 * tensor::CsfTensor::kTileLeafTarget);
  const auto& tree = csf.tree(0);
  EXPECT_EQ(tree.root_count(), 4);
  EXPECT_GT(tree.tile_count(), 1);
}

/// Property: the tiled walk equals the fiber walk and the dense reference
/// for every mode, at 1 and 4 threads (4 exercises split-root fix-up paths
/// regardless of the physical core count).
/// Also checks the register-blocked ranks 8, 16 and 32.
void expect_tiled_matches(const tensor::CooTensor& coo, index_t rank,
                          std::uint64_t seed) {
  const tensor::CsfTensor csf(coo);
  const tensor::DenseTensor dense = coo.densify();
  for (index_t r : {rank, index_t{8}, index_t{16}, index_t{32}}) {
    SCOPED_TRACE(::testing::Message() << "rank " << r);
    const auto factors = test::random_factors(coo.shape(), r, seed);
    for (int threads : {1, 4}) {
      test::with_threads(threads, [&] {
        for (int mode = 0; mode < coo.order(); ++mode) {
          const la::Matrix ref = tensor::mttkrp_fused(dense, factors, mode);
          test::expect_matrix_near(
              tensor::mttkrp_csf(csf, factors, mode, nullptr, nullptr,
                                 tensor::CsfWalk::kTiled),
              ref, 1e-10, "tiled vs dense fused");
          test::expect_matrix_near(
              tensor::mttkrp_csf(csf, factors, mode, nullptr, nullptr,
                                 tensor::CsfWalk::kFiber),
              ref, 1e-10, "fiber vs dense fused");
        }
      });
    }
  }
}

TEST(CsfTiling, TiledWalkMatchesReferenceAllModes) {
  expect_tiled_matches(data::make_sparse_random({9, 8, 7}, 0.15, 5), 6, 205);
  expect_tiled_matches(data::make_sparse_random({12, 9}, 0.2, 8), 5, 206);
  expect_tiled_matches(
      data::make_sparse_random({5, 4, 3, 4, 5}, 0.05, 7), 4, 207);
  // Short root mode with skew: roots split across many tiles.
  expect_tiled_matches(
      data::make_sparse_powerlaw({3, 40, 40}, 0.3, 1.0, 9, 0).tensor, 5, 208);
}

TEST(CsfTiling, EmptyAndTinyTensorsAreSafe) {
  tensor::CooTensor empty({6, 5, 4});
  empty.coalesce();
  const tensor::CsfTensor csf(empty);
  EXPECT_EQ(csf.tree(0).tile_count(), 0);
  const auto factors = test::random_factors(empty.shape(), 3, 3);
  const la::Matrix out = tensor::mttkrp_csf(csf, factors, 0, nullptr, nullptr,
                                            tensor::CsfWalk::kTiled);
  EXPECT_EQ(out.rows(), 6);
  for (index_t i = 0; i < out.size(); ++i) EXPECT_EQ(out.data()[i], 0.0);

  expect_tiled_matches(data::make_sparse_random({2, 2, 2}, 0.9, 4), 3, 209);
}

TEST(CsfTiling, TiledSteadyStateIsAllocationFree) {
  const auto gen = data::make_sparse_powerlaw({4, 48, 48}, 0.3, 1.0, 21, 0);
  const tensor::CsfTensor csf(gen.tensor);
  const auto factors = test::random_factors(csf.shape(), 8, 42);
  test::with_threads(4, [&] {
    util::KernelWorkspace ws;
    la::Matrix out;
    for (int mode = 0; mode < 3; ++mode)
      tensor::mttkrp_csf_into(csf, factors, mode, out, nullptr, &ws,
                              tensor::CsfWalk::kTiled);
    const std::size_t bytes = ws.total_bytes();
    const std::size_t allocs = ws.allocation_count();
    for (int sweep = 0; sweep < 5; ++sweep)
      for (int mode = 0; mode < 3; ++mode)
        tensor::mttkrp_csf_into(csf, factors, mode, out, nullptr, &ws,
                                tensor::CsfWalk::kTiled);
    EXPECT_EQ(ws.total_bytes(), bytes);
    EXPECT_EQ(ws.allocation_count(), allocs);
  });
}

TEST(CsfTiling, WorkspaceSlabsAreTeamSized) {
  // The accumulator slab is sized by the team that actually runs, so a
  // 2-thread cap must lease a smaller arena than a 4-thread one. (Order 4 x
  // rank 128 puts the per-thread slab above the pool's 512-double rounding
  // granularity, so the difference is observable in total_bytes.)
  const tensor::CooTensor coo =
      data::make_sparse_random({10, 9, 8, 7}, 0.05, 4);
  const tensor::CsfTensor csf(coo);
  const auto factors = test::random_factors(coo.shape(), 128, 42);
  auto arena_bytes = [&](int threads) {
    std::size_t bytes = 0;
    test::with_threads(threads, [&] {
      util::KernelWorkspace ws;
      la::Matrix out;
      tensor::mttkrp_csf_into(csf, factors, 0, out, nullptr, &ws,
                              tensor::CsfWalk::kFiber);
      bytes = ws.total_bytes();
    });
    return bytes;
  };
  EXPECT_LT(arena_bytes(2), arena_bytes(4));
}

TEST(CsfTiling, EngineHonorsWalkOption) {
  const auto gen = data::make_sparse_powerlaw({4, 30, 30}, 0.2, 1.0, 31, 0);
  const tensor::CsfTensor csf(gen.tensor);
  auto factors = test::random_factors(csf.shape(), 6, 17);
  core::EngineOptions tiled_opt;
  tiled_opt.csf_walk = tensor::CsfWalk::kTiled;
  test::with_threads(4, [&] {
    const auto tiled =
        core::make_engine(core::EngineKind::kSparse, csf, factors, nullptr,
                          tiled_opt);
    const auto fiber = core::make_engine(core::EngineKind::kSparse, csf,
                                         factors, nullptr, {});
    for (int mode = 0; mode < 3; ++mode) {
      test::expect_matrix_near(tiled->mttkrp(mode), fiber->mttkrp(mode),
                               1e-12, "tiled engine vs fiber engine");
    }
  });
}

}  // namespace
}  // namespace parpp
