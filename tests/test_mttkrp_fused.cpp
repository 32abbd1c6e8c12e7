// Fused MTTKRP vs the element-wise oracle, plus workspace discipline.
#include <gtest/gtest.h>

#include <vector>

#include "parpp/core/cp_als.hpp"
#include "parpp/core/dim_tree.hpp"
#include "parpp/core/msdt.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
#include "parpp/util/workspace.hpp"
#include "test_util.hpp"

namespace parpp::tensor {
namespace {

void check_all_modes(const std::vector<index_t>& shape, index_t rank,
                     std::uint64_t seed) {
  const DenseTensor t = test::random_tensor(shape, seed);
  const auto factors = test::random_factors(shape, rank, seed + 1);
  for (int n = 0; n < t.order(); ++n) {
    SCOPED_TRACE(::testing::Message() << "mode " << n << " rank " << rank);
    const la::Matrix oracle = mttkrp_elementwise(t, factors, n);
    const la::Matrix fused = mttkrp_fused(t, factors, n);
    test::expect_matrix_near(oracle, fused, 1e-10, "fused vs elementwise");
  }
}

TEST(MttkrpFused, Order3AllModesAllRanks) {
  for (index_t rank : {1, 8, 16, 32, 33})
    check_all_modes({6, 5, 7}, rank, 101);
}

TEST(MttkrpFused, Order4AllModesAllRanks) {
  for (index_t rank : {1, 8, 16, 32, 33})
    check_all_modes({4, 3, 5, 4}, rank, 202);
}

TEST(MttkrpFused, Order5AllModesAllRanks) {
  for (index_t rank : {1, 8, 16, 32, 33})
    check_all_modes({3, 4, 2, 3, 4}, rank, 303);
}

TEST(MttkrpFused, PanelBoundaryShapes) {
  // right = 35 with rank 33 forces multiple ragged KRP panels once the
  // panel budget shrinks; also covers a long skinny interior mode.
  check_all_modes({2, 9, 5, 7}, 33, 404);
  check_all_modes({1, 17, 1, 13}, 8, 505);
}

TEST(MttkrpFused, ExtentOneModes) {
  check_all_modes({1, 4, 3}, 8, 606);
  check_all_modes({4, 1, 3}, 8, 707);
  check_all_modes({4, 3, 1}, 8, 808);
  check_all_modes({1, 1, 1}, 3, 909);
}

TEST(MttkrpFused, EmptyTensor) {
  const DenseTensor t({3, 0, 4});
  const auto factors = test::random_factors({3, 0, 4}, 5, 111);
  for (int n = 0; n < 3; ++n) {
    const la::Matrix m = mttkrp_fused(t, factors, n);
    EXPECT_EQ(m.rows(), t.extent(n));
    EXPECT_EQ(m.cols(), 5);
    for (index_t i = 0; i < m.rows(); ++i)
      for (index_t j = 0; j < m.cols(); ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MttkrpFused, AgreesWithKrpReference) {
  const DenseTensor t = test::random_tensor({7, 6, 5, 4}, 121);
  const auto factors = test::random_factors({7, 6, 5, 4}, 12, 122);
  for (int n = 0; n < 4; ++n) {
    test::expect_matrix_near(mttkrp_krp(t, factors, n),
                             mttkrp_fused(t, factors, n), 1e-10,
                             "fused vs krp");
  }
}

TEST(MttkrpFused, IntoReusesOutputShape) {
  const DenseTensor t = test::random_tensor({5, 6, 7}, 131);
  const auto factors = test::random_factors({5, 6, 7}, 4, 132);
  la::Matrix out;
  util::KernelWorkspace ws;
  mttkrp_into(t, factors, 1, out, nullptr, &ws);
  const double* buf = out.data();
  const std::size_t bytes = ws.total_bytes();
  mttkrp_into(t, factors, 1, out, nullptr, &ws);
  EXPECT_EQ(out.data(), buf) << "matching-shape output was reallocated";
  EXPECT_EQ(ws.total_bytes(), bytes) << "second identical call grew the arena";
  test::expect_matrix_near(mttkrp_elementwise(t, factors, 1), out, 1e-10,
                           "reused-output result");
}

TEST(MttkrpFused, SecondSweepZeroWorkspaceGrowth) {
  // A full ALS-style sweep over every mode, twice: the arena may grow while
  // the first sweep discovers its footprint, then must stay flat.
  const DenseTensor t = test::random_tensor({6, 5, 4, 3}, 141);
  const auto factors = test::random_factors({6, 5, 4, 3}, 9, 142);
  util::KernelWorkspace ws;
  std::vector<la::Matrix> out(4);
  for (int n = 0; n < 4; ++n)
    mttkrp_into(t, factors, n, out[static_cast<std::size_t>(n)], nullptr, &ws);
  const std::size_t bytes = ws.total_bytes();
  const std::size_t allocs = ws.allocation_count();
  for (int n = 0; n < 4; ++n)
    mttkrp_into(t, factors, n, out[static_cast<std::size_t>(n)], nullptr, &ws);
  EXPECT_EQ(ws.total_bytes(), bytes) << "second sweep grew the workspace";
  EXPECT_EQ(ws.allocation_count(), allocs)
      << "second sweep touched the allocator";
  EXPECT_EQ(ws.leased_buffers(), 0u) << "leases leaked out of the kernels";
}

TEST(MttkrpFused, TreeEngineSteadyStateZeroWorkspaceGrowth) {
  // DT and MSDT cache nodes draw from the engine arena; once the first
  // sweeps have sized it, rebuilds after factor updates must recycle
  // buffers instead of allocating.
  const DenseTensor t = test::random_tensor({5, 4, 6, 3}, 151);
  for (const core::EngineKind kind :
       {core::EngineKind::kDt, core::EngineKind::kMsdt}) {
    auto factors = test::random_factors({5, 4, 6, 3}, 7, 152);
    auto engine = core::make_engine(kind, t, factors);
    auto* tree = dynamic_cast<core::TreeEngineBase*>(engine.get());
    ASSERT_NE(tree, nullptr);
    Rng rng(153);
    auto sweep = [&] {
      for (int mode = 0; mode < 4; ++mode) {
        (void)engine->mttkrp(mode);
        factors[static_cast<std::size_t>(mode)].fill_uniform(rng);
        engine->notify_update(mode);
      }
    };
    // Warm-up: early sweeps see different cache-hit patterns than steady
    // state (version stamps invalidate different node chains), so peak
    // concurrent-lease demand is discovered over the first few sweeps.
    for (int s = 0; s < 3; ++s) sweep();
    const std::size_t bytes = tree->workspace_bytes();
    const std::size_t allocs = tree->workspace_allocations();
    for (int s = 0; s < 4; ++s) sweep();
    EXPECT_EQ(tree->workspace_bytes(), bytes)
        << core::engine_kind_name(kind) << ": steady-state sweep grew arena";
    EXPECT_EQ(tree->workspace_allocations(), allocs)
        << core::engine_kind_name(kind) << ": steady-state sweep allocated";
  }
}

TEST(KernelWorkspace, ReusesByCapacityAndTracksStats) {
  util::KernelWorkspace ws;
  EXPECT_EQ(ws.total_bytes(), 0u);
  double* p0 = nullptr;
  {
    auto lease = ws.lease(100);
    ASSERT_TRUE(lease.engaged());
    EXPECT_GE(lease.capacity(), 100);
    p0 = lease.data();
    EXPECT_EQ(ws.leased_buffers(), 1u);
  }
  EXPECT_EQ(ws.leased_buffers(), 0u);
  {
    auto lease = ws.lease(64);  // smaller fits in the recycled buffer
    EXPECT_EQ(lease.data(), p0);
    EXPECT_EQ(ws.allocation_count(), 1u);
  }
  {
    auto a = ws.lease(100);
    auto b = ws.lease(100);  // first is leased out: must allocate
    EXPECT_NE(a.data(), b.data());
    EXPECT_EQ(ws.allocation_count(), 2u);
  }
  EXPECT_EQ(ws.allocation_count(), 2u);
  const auto bytes = ws.total_bytes();
  { auto c = ws.lease(50); }  // reuse, no growth
  EXPECT_EQ(ws.total_bytes(), bytes);
  ws.trim();
  EXPECT_EQ(ws.total_bytes(), 0u);
}

TEST(KernelWorkspace, LeaseSurvivesWorkspaceDestruction) {
  util::KernelWorkspace::Lease lease;
  {
    util::KernelWorkspace ws;
    lease = ws.lease(32);
    lease.data()[0] = 1.0;
  }
  // Releasing after the workspace is gone must be safe (shared pool).
  EXPECT_EQ(lease.data()[0], 1.0);
  lease.release();
  EXPECT_FALSE(lease.engaged());
}

TEST(KernelWorkspace, AlignedAndZeroSized) {
  util::KernelWorkspace ws;
  auto lease = ws.lease(7);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lease.data()) % 64, 0u);
  auto empty = ws.lease(0);
  EXPECT_FALSE(empty.engaged());
}

}  // namespace
}  // namespace parpp::tensor
