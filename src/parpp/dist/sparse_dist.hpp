// Sparse block distributions over the processor grid (the sparse siblings
// of extract_local_block).
//
// Nonzeros are partitioned by per-mode boundary arrays — entry ownership
// follows the same padded BlockDist geometry the dense path and the factor
// distribution use, so the medium-grained collective pattern of Algorithm 3
// (slice All-Gather, Reduce-Scatter of slice-shaped MTTKRP contributions)
// carries over unchanged. Each rank's block is cut straight out of the
// caller's CsfTensor: the owned box [slab_offset, slab_end) of every mode,
// re-indexed to block-relative coordinates, with the padded block extents
// and the caller's layout. Blocks that own no nonzeros still get a valid
// (empty) CSF tensor whose MTTKRP contributes zeros.
//
// Two geometries are offered behind the same DistProblem interface:
//
//   * SparseBlockDist — the grid's uniform hyper-rectangular blocks. On
//     skewed tensors (power-law fibers) the blocks holding the head slices
//     carry most of the nonzeros while other ranks idle.
//   * BalancedSparseDist — nnz-balanced boundaries: per mode, a
//     chains-on-chains partition of the slice nnz histogram (exact minimal
//     bottleneck via parametric search) equalizes per-slab nnz, which on
//     independently-skewed modes equalizes per-block nnz. The padded local
//     extent grows to the widest slab, so slice collectives exchange more
//     words; the trade wins whenever the critical-path MTTKRP dominates.
//
// Setup cost: make_local() is a stateless cut — per tree, a walk over the
// global nodes inside the box with two binary searches per visited node,
// and no entry is re-sorted — so every rank cuts its own block
// concurrently. The balanced histograms are read off the trees once at
// construction.
#pragma once

#include <vector>

#include "parpp/dist/local_problem.hpp"
#include "parpp/tensor/csf_tensor.hpp"

namespace parpp::dist {

class SparseBlockDist : public DistProblem {
 public:
  /// Non-owning view of `t`, which must outlive this. Local problems own
  /// their blocks, so they do not depend on `t`.
  explicit SparseBlockDist(const tensor::CsfTensor& t) : t_(&t) {}

  [[nodiscard]] const std::vector<index_t>& global_shape() const override {
    return t_->shape();
  }

  /// The block at grid coordinates `coords`: the entries of the owned box
  /// [slab_offset, slab_end) of every mode, cut from the caller's trees,
  /// with block-relative coordinates and dist.local_shape() extents.
  [[nodiscard]] tensor::CsfTensor block(const BlockDist& dist,
                                        const std::vector<int>& coords) const;

  /// own_block(block(dist, coords)).
  [[nodiscard]] std::unique_ptr<LocalProblem> make_local(
      const BlockDist& dist, const std::vector<int>& coords) const override;

 private:
  const tensor::CsfTensor* t_;
};

/// nnz-balanced sparse distribution: the same cut, non-uniform
/// chains-on-chains boundaries. Slice nnz histograms are read off the trees
/// once at construction (O(roots * order) for a root-tree mode, O(nnz) for a
/// kHalf leaf mode); each make_block_dist() call only partitions the
/// histograms for the requested grid (O(sum extents * log nnz)).
class BalancedSparseDist final : public SparseBlockDist {
 public:
  explicit BalancedSparseDist(const tensor::CsfTensor& t);

  [[nodiscard]] BlockDist make_block_dist(
      const mpsim::ProcessorGrid& grid) const override;

 private:
  std::vector<std::vector<index_t>> slice_nnz_;  ///< per mode, per slice
};

/// Chains-on-chains partition of `loads` into `parts` contiguous chunks
/// minimizing the bottleneck chunk load (parametric search over the exact
/// optimum). Returns parts+1 monotone boundaries with front 0 and back
/// loads.size(); trailing chunks may be empty. Exposed for tests.
[[nodiscard]] std::vector<index_t> chains_on_chains(
    const std::vector<index_t>& loads, int parts);

/// Factory for the partition axis: wraps `t` in the matching DistProblem,
/// a view that `t` must outlive.
[[nodiscard]] std::unique_ptr<DistProblem> make_sparse_problem(
    const tensor::CsfTensor& t, PartitionKind partition);

}  // namespace parpp::dist
