// dist::SparseBlockDist / dist::BalancedSparseDist and the storage-agnostic
// LocalProblem layer: blocks cut from the caller's CSF trees equal the CSF
// tensor of their entries (orders 2-6, both layouts, uniform and
// nnz-balanced boundaries, all-padding slabs, empty blocks, the whole-tensor
// box), partition correctness, chains-on-chains optimality, dense-path
// equivalence, and balanced-vs-uniform solve parity.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/dist/local_problem.hpp"
#include "parpp/dist/sparse_dist.hpp"
#include "parpp/mpsim/runtime.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

/// Builds the grid + BlockDist for every rank of a simulated run and hands
/// each (coords, dist) pair to `body`. Collectives inside ProcessorGrid
/// construction need the full rank set, hence the mpsim round-trip.
void for_each_rank(int nprocs, const std::vector<int>& dims,
                   const std::vector<index_t>& shape,
                   const std::function<void(const dist::BlockDist&,
                                            const std::vector<int>&)>& body) {
  std::mutex mu;
  mpsim::run(nprocs, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, dims);
    dist::BlockDist bd(grid, shape);
    std::lock_guard<std::mutex> lock(mu);
    body(bd, grid.coords());
  });
}

TEST(SparseBlockDist, BlocksPartitionEveryNonzeroExactlyOnce) {
  const tensor::CooTensor coo = data::make_sparse_random({10, 9, 8}, 0.1, 3);
  const tensor::CsfTensor csf(coo);
  const dist::SparseBlockDist problem(csf);
  ASSERT_EQ(problem.global_shape(), coo.shape());

  index_t total_nnz = 0;
  double total_sq = 0.0;
  for_each_rank(8, {2, 2, 2}, coo.shape(),
                [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                  auto local = problem.make_local(bd, c);
                  EXPECT_EQ(local->shape(), bd.local_shape());
                  total_sq += local->squared_norm();
                });
  EXPECT_NEAR(total_sq, coo.squared_norm(), 1e-12 * coo.squared_norm());

  // Entry-level check: every global nonzero lands in exactly one block at
  // the reindexed coordinates. Reconstruct ownership from the geometry.
  for_each_rank(8, {2, 2, 2}, coo.shape(),
                [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                  for (index_t e = 0; e < coo.nnz(); ++e) {
                    bool inside = true;
                    for (int m = 0; m < 3; ++m) {
                      const index_t l =
                          coo.index(e, m) -
                          bd.slab_offset(m, c[static_cast<std::size_t>(m)]);
                      if (l < 0 || l >= bd.local_extent(m)) inside = false;
                    }
                    if (inside) ++total_nnz;
                  }
                });
  EXPECT_EQ(total_nnz, coo.nnz());
}

TEST(SparseBlockDist, EmptyBlocksYieldValidLocalProblems) {
  // All nonzeros in one corner: with a 2x2x2 grid most blocks are empty.
  tensor::CooTensor coo({12, 12, 12});
  const std::vector<index_t> idx0{0, 1, 2};
  coo.push(idx0, 3.0);
  const std::vector<index_t> idx1{1, 0, 1};
  coo.push(idx1, -2.0);
  coo.coalesce();
  const tensor::CsfTensor csf(coo);
  const dist::SparseBlockDist problem(csf);

  int empty_blocks = 0;
  for_each_rank(8, {2, 2, 2}, coo.shape(),
                [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                  auto local = problem.make_local(bd, c);
                  if (local->squared_norm() == 0.0) ++empty_blocks;
                  // An engine over an empty block must produce a zero
                  // MTTKRP, not crash.
                  std::vector<la::Matrix> factors;
                  for (int m = 0; m < 3; ++m)
                    factors.push_back(
                        test::random_matrix(bd.local_extent(m), 4, 5));
                  auto engine = local->make_engine(
                      core::EngineKind::kSparse, factors, nullptr, {});
                  const la::Matrix m0 = engine->mttkrp(0);
                  EXPECT_EQ(m0.rows(), bd.local_extent(0));
                  EXPECT_EQ(m0.cols(), 4);
                });
  EXPECT_GE(empty_blocks, 6);
}

/// Like for_each_rank, but the BlockDist geometry comes from the problem
/// (exercises non-uniform boundaries).
void for_each_rank_of(const dist::DistProblem& problem, int nprocs,
                      const std::vector<int>& dims,
                      const std::function<void(const dist::BlockDist&,
                                               const std::vector<int>&)>& body) {
  std::mutex mu;
  mpsim::run(nprocs, [&](mpsim::Comm& comm) {
    mpsim::ProcessorGrid grid(comm, dims);
    const dist::BlockDist bd = problem.make_block_dist(grid);
    std::lock_guard<std::mutex> lock(mu);
    body(bd, grid.coords());
  });
}

TEST(ChainsOnChains, MinimizesBottleneckAndCoversEverySlice) {
  struct Case {
    std::vector<index_t> loads;
    int parts;
  };
  const std::vector<Case> cases = {
      {{100, 1, 1, 1, 1, 1, 1, 1}, 2},  // power-law head
      {{1, 1, 1, 1, 100}, 2},           // heavy tail
      {{5, 5, 5, 5, 5, 5}, 3},          // already even
      {{0, 0, 7, 0, 0, 3, 0}, 4},       // empty slices
      {{9}, 4},                         // more parts than slices
      {{2, 3, 1, 7, 4, 2, 9, 1, 3, 6}, 4},
  };
  for (const auto& c : cases) {
    const auto b = dist::chains_on_chains(c.loads, c.parts);
    ASSERT_EQ(b.size(), static_cast<std::size_t>(c.parts) + 1);
    EXPECT_EQ(b.front(), 0);
    EXPECT_EQ(b.back(), static_cast<index_t>(c.loads.size()));
    index_t bottleneck = 0;
    for (int p = 0; p < c.parts; ++p) {
      ASSERT_LE(b[static_cast<std::size_t>(p)],
                b[static_cast<std::size_t>(p) + 1]);
      index_t chunk = 0;
      for (index_t i = b[static_cast<std::size_t>(p)];
           i < b[static_cast<std::size_t>(p) + 1]; ++i)
        chunk += c.loads[static_cast<std::size_t>(i)];
      bottleneck = std::max(bottleneck, chunk);
    }
    // Brute-force optimal bottleneck over every boundary placement (the
    // inputs are small enough for exhaustive search via recursion).
    std::function<index_t(std::size_t, int)> best = [&](std::size_t from,
                                                        int parts) -> index_t {
      index_t tail = 0;
      for (std::size_t i = from; i < c.loads.size(); ++i) tail += c.loads[i];
      if (parts == 1) return tail;
      index_t opt = tail;  // everything in one chunk, rest empty
      index_t head = 0;
      for (std::size_t cut = from; cut <= c.loads.size(); ++cut) {
        opt = std::min(opt, std::max(head, best(cut, parts - 1)));
        if (cut < c.loads.size()) head += c.loads[cut];
      }
      return opt;
    };
    EXPECT_EQ(bottleneck, best(0, c.parts)) << "parts " << c.parts;
  }
}

TEST(BalancedSparseDist, EveryNonzeroOwnedByExactlyOneBlock) {
  const auto gen = data::make_sparse_powerlaw({24, 20, 16}, 0.08, 1.4, 5, 0);
  const tensor::CooTensor& coo = gen.tensor;
  const tensor::CsfTensor csf(coo);
  const dist::BalancedSparseDist problem(csf);
  ASSERT_EQ(problem.global_shape(), coo.shape());

  index_t total_nnz = 0;
  double total_sq = 0.0;
  std::vector<int> owners(static_cast<std::size_t>(coo.nnz()), 0);
  for_each_rank_of(problem, 8, {2, 2, 2},
                   [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                     auto local = problem.make_local(bd, c);
                     // Local coordinates are in-range by construction: the
                     // block must report the padded geometry...
                     EXPECT_EQ(local->shape(), bd.local_shape());
                     // ...and every owned slab must fit inside it.
                     for (int m = 0; m < 3; ++m) {
                       const int cm = c[static_cast<std::size_t>(m)];
                       EXPECT_LE(bd.slab_end(m, cm) - bd.slab_offset(m, cm),
                                 bd.local_extent(m));
                     }
                     total_nnz += local->nnz();
                     total_sq += local->squared_norm();
                     // Geometric ownership: entry-by-entry, against the
                     // boundary arrays.
                     for (index_t e = 0; e < coo.nnz(); ++e) {
                       bool inside = true;
                       for (int m = 0; m < 3; ++m) {
                         const int cm = c[static_cast<std::size_t>(m)];
                         const index_t i = coo.index(e, m);
                         if (i < bd.slab_offset(m, cm) ||
                             i >= bd.slab_end(m, cm))
                           inside = false;
                       }
                       if (inside) ++owners[static_cast<std::size_t>(e)];
                     }
                   });
  EXPECT_EQ(total_nnz, coo.nnz());
  EXPECT_NEAR(total_sq, coo.squared_norm(), 1e-12 * coo.squared_norm());
  for (index_t e = 0; e < coo.nnz(); ++e)
    EXPECT_EQ(owners[static_cast<std::size_t>(e)], 1) << "entry " << e;
}

TEST(BalancedSparseDist, FlattensPowerlawImbalance) {
  const auto gen = data::make_sparse_powerlaw({32, 32, 32}, 0.05, 1.8, 3, 0);
  const tensor::CsfTensor csf(gen.tensor);
  const dist::SparseBlockDist uniform(csf);
  const dist::BalancedSparseDist balanced(csf);

  auto max_block_nnz = [&](const dist::DistProblem& p) {
    index_t worst = 0;
    for_each_rank_of(p, 8, {2, 2, 2},
                     [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                       worst = std::max(worst, p.make_local(bd, c)->nnz());
                     });
    return worst;
  };
  const index_t u = max_block_nnz(uniform);
  const index_t b = max_block_nnz(balanced);
  // The head block of the uniform grid holds most of the tensor; the
  // balanced boundaries must cut its load at least in half.
  EXPECT_LT(2 * b, u) << "uniform worst " << u << ", balanced worst " << b;
}

TEST(SparseBlockDist, RefetchingBucketsNeverReturnsEmptyBlocks) {
  // make_local keeps no state between calls: a full second cycle and a
  // mid-cycle double fetch of one coordinate both get the whole block.
  const tensor::CooTensor coo = data::make_sparse_random({10, 9, 8}, 0.1, 3);
  const tensor::CsfTensor csf(coo);
  const dist::SparseBlockDist problem(csf);
  for (int cycle = 0; cycle < 2; ++cycle) {
    index_t total = 0;
    for_each_rank(8, {2, 2, 2}, coo.shape(),
                  [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                    total += problem.make_local(bd, c)->nnz();
                  });
    EXPECT_EQ(total, coo.nnz()) << "cycle " << cycle;
  }
  for_each_rank(8, {2, 2, 2}, coo.shape(),
                [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                  auto a = problem.make_local(bd, c);
                  auto b = problem.make_local(bd, c);  // same coord again
                  EXPECT_EQ(a->nnz(), b->nnz());
                  EXPECT_DOUBLE_EQ(a->squared_norm(), b->squared_norm());
                });
}

TEST(BalancedSparseDist, SolvesAgreeWithUniformAtEveryRankCount) {
  const auto gen = data::make_sparse_powerlaw({20, 18, 16}, 0.06, 1.4, 11, 6);
  const tensor::CsfTensor csf(gen.tensor);

  auto fitness_of = [&](int nprocs, dist::PartitionKind partition) {
    solver::SolverSpec spec;
    spec.rank = 6;
    spec.engine = core::EngineKind::kSparse;
    spec.stopping.max_sweeps = 12;
    spec.stopping.fitness_tol = 0.0;
    spec.record_history = false;
    if (nprocs > 1) {
      spec.execution = solver::Execution::simulated_parallel(nprocs);
      spec.execution.partition = partition;
    }
    return parpp::solve(csf, spec);
  };
  const double seq = fitness_of(1, dist::PartitionKind::kUniformBlocks).fitness;
  for (int nprocs : {2, 4, 8}) {
    const auto uni = fitness_of(nprocs, dist::PartitionKind::kUniformBlocks);
    const auto bal = fitness_of(nprocs, dist::PartitionKind::kBalancedNnz);
    EXPECT_NEAR(uni.fitness, bal.fitness, 1e-10) << nprocs << " ranks";
    EXPECT_NEAR(seq, bal.fitness, 1e-10) << nprocs << " ranks vs sequential";
    // The knob must actually change the geometry, observably: balanced
    // cannot be *more* imbalanced than uniform on a skewed tensor.
    EXPECT_LE(bal.nnz_imbalance, uni.nnz_imbalance + 1e-12);
    EXPECT_GE(bal.nnz_imbalance, 1.0);
  }
}

/// The CsfTensor of the coalesced entries of `coo` inside the box [lo, hi),
/// re-indexed to start at `lo`, with extents `shape`: what a cut must equal.
tensor::CsfTensor box_reference(const tensor::CooTensor& coo,
                                const std::vector<index_t>& lo,
                                const std::vector<index_t>& hi,
                                const std::vector<index_t>& shape,
                                tensor::CsfLayout layout) {
  const auto n = static_cast<std::size_t>(coo.order());
  tensor::CooTensor ref(shape);
  std::vector<index_t> idx(n);
  for (index_t e = 0; e < coo.nnz(); ++e) {
    bool inside = true;
    for (std::size_t m = 0; m < n; ++m) {
      const index_t i = coo.index(e, static_cast<int>(m));
      inside = inside && i >= lo[m] && i < hi[m];
      idx[m] = i - lo[m];
    }
    if (inside) ref.push(idx, coo.value(e));
  }
  ref.coalesce();
  return tensor::CsfTensor(ref, {layout});
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (double x : v) out.push_back(bits(x));
  return out;
}

void expect_same_csf(const tensor::CsfTensor& got,
                     const tensor::CsfTensor& want, const std::string& where) {
  ASSERT_EQ(got.shape(), want.shape()) << where;
  EXPECT_EQ(got.layout(), want.layout()) << where;
  EXPECT_EQ(got.nnz(), want.nnz()) << where;
  EXPECT_EQ(bits(got.squared_norm()), bits(want.squared_norm())) << where;
  EXPECT_EQ(got.density(), want.density()) << where;
  ASSERT_EQ(got.tree_count(), want.tree_count()) << where;
  for (int t = 0; t < got.tree_count(); ++t) {
    const tensor::CsfTensor::Tree& a = got.tree(t);
    const tensor::CsfTensor::Tree& b = want.tree(t);
    const std::string tree = where + ", tree " + std::to_string(t);
    EXPECT_EQ(a.mode_order, b.mode_order) << tree;
    EXPECT_EQ(a.fptr, b.fptr) << tree;
    EXPECT_EQ(a.fids, b.fids) << tree;
    EXPECT_EQ(bits(a.vals), bits(b.vals)) << tree;
    EXPECT_EQ(a.tile_ptr, b.tile_ptr) << tree;
    EXPECT_EQ(a.tile_root, b.tile_root) << tree;
    EXPECT_EQ(a.tile_root_end, b.tile_root_end) << tree;
    EXPECT_EQ(a.internal_nodes, b.internal_nodes) << tree;
  }
}

/// Checks every block that `problem` cuts over the grid `dims` against
/// box_reference. All ranks cut at once, with no lock: make_local holds no
/// shared state. Returns the number of empty blocks.
int expect_cuts_match(const tensor::CooTensor& coo, tensor::CsfLayout layout,
                      const dist::SparseBlockDist& problem,
                      const std::vector<int>& dims, const std::string& tag) {
  int nprocs = 1;
  for (int d : dims) nprocs *= d;
  std::atomic<int> empty_blocks{0};
  mpsim::run(nprocs, [&](mpsim::Comm& comm) {
    const mpsim::ProcessorGrid grid(comm, dims);
    const dist::BlockDist bd = problem.make_block_dist(grid);
    const std::vector<int>& c = grid.coords();
    std::vector<index_t> lo, hi;
    for (int m = 0; m < bd.order(); ++m) {
      lo.push_back(bd.slab_offset(m, c[static_cast<std::size_t>(m)]));
      hi.push_back(bd.slab_end(m, c[static_cast<std::size_t>(m)]));
    }
    const std::string where = tag + ", rank " + std::to_string(comm.rank());
    const tensor::CsfTensor want =
        box_reference(coo, lo, hi, bd.local_shape(), layout);
    expect_same_csf(problem.block(bd, c), want, where);
    const auto local = problem.make_local(bd, c);
    EXPECT_EQ(local->shape(), want.shape()) << where;
    EXPECT_EQ(local->nnz(), want.nnz()) << where;
    EXPECT_EQ(bits(local->squared_norm()), bits(want.squared_norm())) << where;
    if (want.nnz() == 0) ++empty_blocks;
  });
  return empty_blocks.load();
}

/// The whole-tensor box and every uniform and balanced block of `coo` over
/// the grid `dims`, in both layouts. Returns the number of empty blocks.
int expect_all_cuts_match(const tensor::CooTensor& coo,
                          const std::vector<int>& dims,
                          const std::string& tag) {
  int empty = 0;
  for (tensor::CsfLayout layout :
       {tensor::CsfLayout::kAllModes, tensor::CsfLayout::kHalf}) {
    const tensor::CsfTensor csf(coo, {layout});
    const std::string where =
        tag + " " + std::string(solver::to_string(layout));
    // The whole-tensor box cuts the tensor itself.
    const std::vector<index_t> zeros(coo.shape().size(), 0);
    expect_same_csf(tensor::CsfTensor(csf, zeros, coo.shape(), coo.shape()),
                    csf, where + ", whole box");
    empty += expect_cuts_match(coo, layout, dist::SparseBlockDist(csf), dims,
                               where + ", uniform");
    empty += expect_cuts_match(coo, layout, dist::BalancedSparseDist(csf),
                               dims, where + ", balanced");
  }
  return empty;
}

TEST(SparseDist, CutBlocksEqualCsfOfTheirEntries) {
  struct Case {
    std::vector<index_t> shape;
    double density;
    std::vector<int> dims;  ///< grid; nprocs is the product
  };
  const std::vector<Case> cases = {
      {{13, 11}, 0.3, {2, 2}},
      // An extent-1 mode.
      {{9, 1}, 0.6, {4, 1}},
      {{24, 20, 16}, 0.15, {2, 2, 2}},
      // More blocks than mode 0 has slices: all-padding slabs.
      {{3, 10, 9}, 0.2, {4, 1, 2}},
      {{7, 1, 6, 5}, 0.2, {2, 1, 2, 1}},
      {{5, 4, 6, 3, 4}, 0.1, {2, 1, 2, 1, 2}},
      {{4, 3, 5, 3, 2, 4}, 0.1, {2, 1, 1, 2, 1, 1}},
      // Blocks of more than one tile.
      {{32, 28, 24}, 0.2, {2, 1, 1}},
      // One block: the whole tensor.
      {{40, 30, 20}, 0.25, {1, 1, 1}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    expect_all_cuts_match(data::make_sparse_random(c.shape, c.density, 41 + i),
                          c.dims, "case " + std::to_string(i));
  }

  // All nonzeros in one corner: most blocks of a 2x2x2 grid are empty, 7
  // uniform and 6 balanced ones in each layout.
  tensor::CooTensor corner({12, 12, 12});
  corner.push(std::vector<index_t>{0, 1, 2}, 3.0);
  corner.push(std::vector<index_t>{1, 0, 1}, -2.0);
  corner.coalesce();
  EXPECT_EQ(expect_all_cuts_match(corner, {2, 2, 2}, "corner"), 2 * (7 + 6));
}

TEST(DenseBlockProblem, MatchesExtractLocalBlockBitForBit) {
  const tensor::DenseTensor global = test::random_tensor({7, 6, 5}, 21);
  const dist::DenseBlockProblem problem(global);
  ASSERT_EQ(problem.global_shape(), global.shape());

  for_each_rank(4, {2, 2, 1}, global.shape(),
                [&](const dist::BlockDist& bd, const std::vector<int>& c) {
                  const tensor::DenseTensor expected =
                      dist::extract_local_block(global, bd, c);
                  auto local = problem.make_local(bd, c);
                  EXPECT_EQ(local->shape(), expected.shape());
                  EXPECT_DOUBLE_EQ(local->squared_norm(),
                                   expected.squared_norm());
                });
}

}  // namespace
}  // namespace parpp
