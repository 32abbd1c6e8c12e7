#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>

#include "parpp/dist/dist_tensor.hpp"
#include "parpp/dist/factor_dist.hpp"
#include "parpp/mpsim/runtime.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

TEST(ProcessorGrid, CoordsRoundTrip) {
  mpsim::run(12, [](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {3, 2, 2});
    const auto coords = grid.coords();
    EXPECT_EQ(grid.rank_of(coords), comm.rank());
    for (int r = 0; r < 12; ++r)
      EXPECT_EQ(grid.rank_of(grid.coords_of(r)), r);
  });
}

TEST(ProcessorGrid, SliceCommsGroupByCoordinate) {
  mpsim::run(8, [](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2, 2});
    for (int mode = 0; mode < 3; ++mode) {
      EXPECT_EQ(grid.slice_comm(mode).size(), 4);
      EXPECT_EQ(grid.slice_size(mode), 4);
      // All members share my coordinate on `mode`: verified via a sum of
      // coordinates — every member contributes the same value.
      double v = static_cast<double>(grid.coord(mode));
      grid.slice_comm(mode).allreduce_sum(&v, 1, PARPP_COMM_TAG("t-allreduce"));
      EXPECT_DOUBLE_EQ(v, 4.0 * grid.coord(mode));
    }
  });
}

TEST(ProcessorGrid, VolumeMismatchThrows) {
  EXPECT_THROW(mpsim::run(4,
                          [](mpsim::Comm& comm) {
                            mpsim::ProcessorGrid grid(comm, {3, 2});
                          }),
               error);
}

TEST(ProcessorGrid, BalancedDims) {
  const auto d1 = mpsim::ProcessorGrid::balanced_dims(8, 3);
  EXPECT_EQ(d1, (std::vector<int>{2, 2, 2}));
  const auto d2 = mpsim::ProcessorGrid::balanced_dims(12, 2);
  EXPECT_EQ(d2[0] * d2[1], 12);
  const auto d3 = mpsim::ProcessorGrid::balanced_dims(7, 3);
  EXPECT_EQ(d3[0] * d3[1] * d3[2], 7);
  const auto d4 = mpsim::ProcessorGrid::balanced_dims(1, 4);
  EXPECT_EQ(d4, (std::vector<int>{1, 1, 1, 1}));
}

TEST(BlockDist, PaddedExtentsDivideEvenly) {
  mpsim::run(8, [](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2, 2});
    dist::BlockDist dist(grid, {10, 7, 16});
    for (int m = 0; m < 3; ++m) {
      EXPECT_GE(dist.local_extent(m) * grid.dim(m),
                dist.global_shape()[static_cast<std::size_t>(m)]);
      EXPECT_EQ(dist.local_extent(m) % grid.slice_size(m), 0);
      EXPECT_EQ(dist.rows_q(m) * grid.slice_size(m), dist.local_extent(m));
    }
  });
}

TEST(BlockDist, LocalBlocksTileTheTensor) {
  // Sum of squared norms of all local blocks == squared norm of the global
  // tensor (padding contributes zero).
  const auto global = test::random_tensor({9, 6, 10}, 701);
  std::vector<double> sq(8, 0.0);
  mpsim::run(8, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2, 2});
    dist::BlockDist dist(grid, global.shape());
    const auto local = dist::extract_local_block(global, dist, grid.coords());
    sq[static_cast<std::size_t>(comm.rank())] = local.squared_norm();
  });
  double total = 0.0;
  for (double v : sq) total += v;
  EXPECT_NEAR(total, global.squared_norm(), 1e-9);
}

TEST(BlockDist, BlockContentsMatchGlobal) {
  const auto global = test::random_tensor({4, 6}, 702);
  mpsim::run(4, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2});
    dist::BlockDist dist(grid, global.shape());
    const auto local = dist::extract_local_block(global, dist, grid.coords());
    for (index_t i = 0; i < dist.local_extent(0); ++i) {
      for (index_t j = 0; j < dist.local_extent(1); ++j) {
        const index_t gi = dist.slab_offset(0, grid.coord(0)) + i;
        const index_t gj = dist.slab_offset(1, grid.coord(1)) + j;
        const std::array<index_t, 2> lidx{i, j};
        if (gi < 4 && gj < 6) {
          const std::array<index_t, 2> gidx{gi, gj};
          EXPECT_DOUBLE_EQ(local.at(lidx), global.at(gidx));
        } else {
          EXPECT_DOUBLE_EQ(local.at(lidx), 0.0);
        }
      }
    }
  });
}

/// Element-by-element block extraction: one bounds test and one global
/// lookup per local entry. extract_local_block copies contiguous last-mode
/// runs instead and must give the same block.
tensor::DenseTensor extract_elementwise(const tensor::DenseTensor& global,
                                        const dist::BlockDist& dist,
                                        const std::vector<int>& coords) {
  const int n = dist.order();
  tensor::DenseTensor local(dist.local_shape());
  if (local.size() == 0) return local;
  std::vector<index_t> lidx(static_cast<std::size_t>(n), 0);
  std::vector<index_t> gidx(static_cast<std::size_t>(n), 0);
  index_t lin = 0;
  do {
    bool inside = true;
    for (int m = 0; m < n; ++m) {
      const auto um = static_cast<std::size_t>(m);
      gidx[um] = dist.slab_offset(m, coords[um]) + lidx[um];
      if (gidx[um] >= dist.slab_end(m, coords[um])) {
        inside = false;
        break;
      }
    }
    local[lin++] = inside ? global.at(gidx) : 0.0;
  } while (tensor::next_index(local.shape(), lidx));
  return local;
}

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Every rank of a `dims` grid extracts its block with uniform bounds (empty
/// `bounds`) or the given ones; each block must equal the element-wise
/// oracle's in shape and in every entry's bits.
void expect_runs_match_elementwise(
    const std::vector<index_t>& shape, const std::vector<int>& dims,
    const std::vector<std::vector<index_t>>& bounds = {}) {
  const auto global = test::random_tensor(shape, 703);
  int procs = 1;
  for (int d : dims) procs *= d;
  std::ostringstream what;
  test::print_dims(shape, &what);
  what << " on ";
  test::print_dims(dims, &what);
  what << (bounds.empty() ? " uniform" : " non-uniform");
  mpsim::run(procs, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, dims);
    const dist::BlockDist dist =
        bounds.empty() ? dist::BlockDist(grid, shape)
                       : dist::BlockDist(grid, shape, bounds);
    const auto got = dist::extract_local_block(global, dist, grid.coords());
    const auto want = extract_elementwise(global, dist, grid.coords());
    ASSERT_EQ(got.shape(), want.shape()) << what.str();
    for (index_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(bits(got[i]), bits(want[i]))
          << what.str() << " rank " << comm.rank() << " entry " << i;
  });
}

TEST(BlockDist, RunWiseExtractionMatchesElementwise) {
  // Uniform bounds on orders 1-5, extents the grid does not divide.
  expect_runs_match_elementwise({10}, {3});
  expect_runs_match_elementwise({7, 5}, {2, 3});
  expect_runs_match_elementwise({5, 6, 7, 3}, {2, 1, 2, 1});
  expect_runs_match_elementwise({3, 4, 2, 5, 6}, {1, 2, 1, 2, 1});
  // Extent-1 modes: split two ways, the second slab is all padding.
  expect_runs_match_elementwise({9, 1, 10}, {2, 2, 1});
  expect_runs_match_elementwise({4, 5, 1}, {1, 2, 2});
  // More blocks than the middle mode's two rows.
  expect_runs_match_elementwise({9, 2, 10}, {1, 4, 1});
  // Non-uniform: mode 0's first slab is zero-width; mode 0's second and
  // mode 1's first padded slabs overlap the next coordinate's rows.
  expect_runs_match_elementwise({10, 8, 9}, {3, 2, 1},
                                {{0, 0, 7, 10}, {0, 5, 8}, {0, 9}});
  // Non-uniform order 4 with bounds past the extent: mode 2's last two
  // slabs start beyond it and own nothing.
  expect_runs_match_elementwise({6, 5, 10, 4}, {2, 1, 3, 1},
                                {{0, 4, 6}, {0, 5}, {0, 11, 11, 12}, {0, 4}});
}

TEST(FactorDist, QRowsPartitionGlobalRows) {
  mpsim::run(8, [](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2, 2});
    dist::BlockDist dist(grid, {11, 8, 6});
    dist::FactorDist fd(grid, dist, 3);
    for (int mode = 0; mode < 3; ++mode) {
      // Collect global row indices owned across ranks; they must cover
      // 0..s-1 exactly once (padding rows report -1).
      std::vector<double> mine;
      for (index_t r = 0; r < dist.rows_q(mode); ++r)
        mine.push_back(static_cast<double>(fd.q_row_global(mode, r)));
      std::vector<double> all(mine.size() * 8);
      comm.allgather(mine.data(), static_cast<index_t>(mine.size()),
                     all.data(), PARPP_COMM_TAG("t-allgather"));
      if (comm.rank() == 0) {
        std::multiset<long> owned;
        for (double v : all)
          if (v >= 0) owned.insert(static_cast<long>(v));
        const long s = dist.global_shape()[static_cast<std::size_t>(mode)];
        EXPECT_EQ(static_cast<long>(owned.size()), s);
        for (long g = 0; g < s; ++g) EXPECT_EQ(owned.count(g), 1u) << g;
      }
    }
  });
}

TEST(FactorDist, GatherSliceMatchesGlobalRows) {
  const auto global_a = test::random_matrix(10, 3, 703);
  mpsim::run(4, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2});
    dist::BlockDist dist(grid, {10, 8});
    dist::FactorDist fd(grid, dist, 3);
    fd.set_q_from_global(0, global_a);
    fd.gather_slice(0);
    const auto& slice = fd.slice(0);
    const index_t slab = dist.slab_offset(0, grid.coord(0));
    for (index_t r = 0; r < slice.rows(); ++r) {
      const index_t g = slab + r;
      for (index_t c = 0; c < 3; ++c) {
        const double want = g < 10 ? global_a(g, c) : 0.0;
        EXPECT_DOUBLE_EQ(slice(r, c), want) << "row " << r;
      }
    }
  });
}

TEST(FactorDist, AllGatherGlobalRoundTrips) {
  const auto global_a = test::random_matrix(13, 4, 704);
  mpsim::run(8, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2, 2});
    dist::BlockDist dist(grid, {13, 6, 6});
    dist::FactorDist fd(grid, dist, 4);
    fd.set_q_from_global(0, global_a);
    const la::Matrix back = fd.allgather_global(0);
    EXPECT_DOUBLE_EQ(back.max_abs_diff(global_a), 0.0);
  });
}

TEST(FactorDist, ReduceScatterSumsSliceContributions) {
  mpsim::run(4, [](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, {2, 2});
    dist::BlockDist dist(grid, {8, 8});
    dist::FactorDist fd(grid, dist, 2);
    // Every rank contributes a slice of ones; mode-0 slice group has 2
    // members, so summed Q rows are all 2.
    la::Matrix contribution(dist.local_extent(0), 2);
    contribution.fill(1.0);
    const la::Matrix q = fd.reduce_scatter(0, contribution);
    ASSERT_EQ(q.rows(), dist.rows_q(0));
    for (index_t i = 0; i < q.rows(); ++i)
      for (index_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(q(i, j), 2.0);
  });
}

}  // namespace
}  // namespace parpp
