// Block distribution of a tensor over a processor grid (Sec. II-A).
//
// Each grid coordinate owns one hyper-rectangular block of the global
// tensor, delimited per mode by a monotone boundary array: coordinate c on
// mode m owns global indices [slab_offset(m, c), slab_end(m, c)). The
// default construction splits every mode uniformly (the paper's geometry);
// the boundary-array construction accepts non-uniform splits — e.g. the
// nnz-balanced chains-on-chains partition of dist::BalancedSparseDist — on
// the same interface.
//
// Local extents are padded so that (a) every rank's block has identical
// shape (collectives exchange fixed-size buffers; for non-uniform
// boundaries the padded extent is the widest slab of the mode) and (b)
// each mode's local extent divides evenly into the Q-row chunks of the
// factor distribution (local_extent(m) is a multiple of the mode-m
// slice-group size). Padding rows are explicit zeros for dense storage and
// simply absent for sparse blocks; either way they contribute nothing to
// MTTKRP, Gram, or norm reductions. With non-uniform boundaries a padded
// slab can overlap the *next* coordinate's rows; ownership is always
// decided by slab_end, never by the padded extent, so every global index
// still has exactly one owner.
#pragma once

#include <algorithm>
#include <vector>

#include "parpp/mpsim/grid.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/util/common.hpp"

namespace parpp::dist {

class BlockDist {
 public:
  /// Uniform split: coordinate c on mode m owns [c*L, (c+1)*L) clipped to
  /// the global extent, L = padded per-rank extent.
  BlockDist(const mpsim::ProcessorGrid& grid, std::vector<index_t> global_shape);

  /// Non-uniform split: bounds[m] has grid.dim(m)+1 monotone entries with
  /// bounds[m][0] == 0 and bounds[m][dim] == global extent of m; coordinate
  /// c owns [bounds[m][c], bounds[m][c+1]). Zero-width slabs are valid
  /// (all-padding ranks).
  BlockDist(const mpsim::ProcessorGrid& grid, std::vector<index_t> global_shape,
            std::vector<std::vector<index_t>> bounds);

  [[nodiscard]] int order() const {
    return static_cast<int>(global_shape_.size());
  }
  [[nodiscard]] const std::vector<index_t>& global_shape() const {
    return global_shape_;
  }
  /// Grid extents the distribution was built for (blocks per mode).
  [[nodiscard]] int blocks(int mode) const {
    return static_cast<int>(bounds_[static_cast<std::size_t>(mode)].size()) - 1;
  }
  /// Padded per-rank block extent of `mode`; identical on every rank.
  [[nodiscard]] index_t local_extent(int mode) const {
    return local_shape_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] const std::vector<index_t>& local_shape() const {
    return local_shape_;
  }
  /// Rows of the mode-`mode` factor owned by each rank:
  /// local_extent(mode) / slice_size(mode).
  [[nodiscard]] index_t rows_q(int mode) const {
    return rows_q_[static_cast<std::size_t>(mode)];
  }
  /// Global start index of the slab owned by grid coordinate `coord` on
  /// `mode` (may point past the true extent for all-padding slabs).
  [[nodiscard]] index_t slab_offset(int mode, int coord) const {
    return bounds_[static_cast<std::size_t>(mode)]
                  [static_cast<std::size_t>(coord)];
  }
  /// One past the last global index *owned* by `coord` on `mode` (clipped
  /// to the global extent). Rows of the padded slab at or beyond this are
  /// padding — they belong to no coordinate (uniform tail) or to the next
  /// coordinate (non-uniform boundaries).
  [[nodiscard]] index_t slab_end(int mode, int coord) const {
    return std::min(bounds_[static_cast<std::size_t>(mode)]
                           [static_cast<std::size_t>(coord) + 1],
                    global_shape_[static_cast<std::size_t>(mode)]);
  }
  /// Per-mode boundary arrays (size blocks(m)+1 each; uniform bounds are
  /// uncapped multiples of local_extent).
  [[nodiscard]] const std::vector<std::vector<index_t>>& bounds() const {
    return bounds_;
  }

 private:
  void finalize(const mpsim::ProcessorGrid& grid);

  std::vector<index_t> global_shape_;
  std::vector<std::vector<index_t>> bounds_;  ///< per mode, size dim+1
  std::vector<index_t> local_shape_;
  std::vector<index_t> rows_q_;
};

/// Extracts the local block owned by grid coordinates `coords`, zero-padding
/// indices past the slab's owned range. `global` must have the
/// distribution's global shape; owned entries are copied as contiguous runs
/// along the last mode.
[[nodiscard]] tensor::DenseTensor extract_local_block(
    const tensor::DenseTensor& global, const BlockDist& dist,
    const std::vector<int>& coords);

}  // namespace parpp::dist
