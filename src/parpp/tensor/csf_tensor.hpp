// Compressed sparse fiber (CSF) tensor with per-mode orderings.
#pragma once

#include <vector>

#include "parpp/tensor/coo_tensor.hpp"
#include "parpp/util/common.hpp"

namespace parpp::tensor {

/// How many fiber trees a CsfTensor keeps (SPLATT's "number of CSF
/// allocations" knob, specialized to the two layouts the kernels support).
enum class CsfLayout {
  /// One tree per mode (root first, remaining modes ascending). Every
  /// MTTKRP is a root walk — branch-free and mode-symmetric, at the cost
  /// of N copies of the nonzero pattern.
  kAllModes,
  /// ceil(N/2) trees: tree m is rooted at mode m with mode N-1-m as its
  /// *leaf* level, so each tree serves two modes — mode m by the classic
  /// root walk and mode N-1-m by a downward product-carrying walk that
  /// scatters at the leaves. Halves the pattern memory for order-N
  /// tensors. (The middle tree of an odd order serves only its root.)
  kHalf,
};

struct CsfOptions {
  CsfLayout layout = CsfLayout::kAllModes;
};

/// SPLATT-style compressed sparse fiber storage. One fiber tree is kept per
/// root mode (mode order: root first, remaining modes ascending), so the
/// MTTKRP of any mode walks a tree rooted at that mode and parallelizes
/// over its root fibers without write conflicts. The N-tree layout trades
/// memory (N copies of the pattern, still O(N * nnz) words versus the dense
/// prod(shape)) for a branch-free, mode-symmetric kernel — the right trade
/// for the repeated sweeps of ALS. `CsfLayout::kHalf` halves that pattern
/// memory by serving two modes per tree (see walk_for).
///
/// Construction costs O(N·nnz + Σ extents) per tree. The coalesced COO is
/// already in the order of any tree whose mode order ascends (tree 0 in
/// both layouts); every other tree gets one stable counting-sort pass per
/// level ahead of its longest ascending tail — a single pass for each
/// all-modes tree. A counting pass then sizes every level, and each
/// fptr/fids/vals array is allocated once at its exact size and filled.
/// Transient scratch is two index words plus one byte per nonzero, and one
/// bucket word per index of the mode being sorted.
///
/// Immutable once built: construct from a coalesced CooTensor.
class CsfTensor {
 public:
  /// One fiber tree. Level l stores one node per distinct coordinate prefix
  /// of length l+1 (modes taken in mode_order): fids[l][j] is node j's
  /// coordinate in mode mode_order[l], its children occupy
  /// [fptr[l][j], fptr[l][j+1]) at level l+1, and the leaf level (order-1)
  /// carries vals aligned with its fids.
  struct Tree {
    std::vector<int> mode_order;             ///< size order, root first
    std::vector<std::vector<index_t>> fptr;  ///< levels 0 .. order-2
    std::vector<std::vector<index_t>> fids;  ///< levels 0 .. order-1
    std::vector<double> vals;                ///< aligned with fids.back()
    /// Nodes strictly between root and leaf levels — the Hadamard-add count
    /// of a root-mode MTTKRP walk (flop accounting).
    index_t internal_nodes = 0;

    // Cache-blocked tiling of the level-1 node array (SPLATT-style): tile t
    // covers level-1 nodes [tile_ptr[t], tile_ptr[t+1]) — about
    // kTileLeafTarget leaf entries each — and intersects the root fibers
    // [tile_root[t], tile_root_end[t]). Splitting at level-1 (not root)
    // granularity lets the tiled MTTKRP walk keep every thread busy even
    // when the root mode is short; a tile's first/last root may be shared
    // with its neighbors, which the walk resolves with private partial
    // rows and a serial fix-up (see mttkrp_sparse.cpp).
    std::vector<index_t> tile_ptr;       ///< size tiles+1
    std::vector<index_t> tile_root;      ///< first intersecting root fiber
    std::vector<index_t> tile_root_end;  ///< one past the last

    [[nodiscard]] index_t root_count() const {
      return static_cast<index_t>(fids.front().size());
    }
    [[nodiscard]] index_t tile_count() const {
      return static_cast<index_t>(tile_ptr.size()) - 1;
    }
  };

  /// Leaf entries a tile targets (the last tile of a tree may be smaller;
  /// a single level-1 node with a larger subtree is never split).
  static constexpr index_t kTileLeafTarget = 2048;

  /// Builds the per-mode trees (kAllModes). `coo` must be coalesced (sorted
  /// entries, no duplicate coordinates) — call CooTensor::coalesce() first.
  explicit CsfTensor(const CooTensor& coo);
  /// Layout-selecting constructor; same coalesced-input contract.
  CsfTensor(const CooTensor& coo, const CsfOptions& options);

  [[nodiscard]] int order() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] const std::vector<index_t>& shape() const { return shape_; }
  [[nodiscard]] index_t extent(int mode) const {
    PARPP_ASSERT(mode >= 0 && mode < order(), "extent: bad mode ", mode);
    return shape_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] index_t nnz() const { return nnz_; }
  [[nodiscard]] double squared_norm() const { return squared_norm_; }
  [[nodiscard]] double frobenius_norm() const;
  [[nodiscard]] double density() const;
  [[nodiscard]] CsfLayout layout() const { return layout_; }
  [[nodiscard]] int tree_count() const {
    return static_cast<int>(trees_.size());
  }
  /// Index/pointer words across all trees' fptr+fids arrays — the pattern
  /// memory the kHalf layout halves. Diagnostic for tests and benches.
  [[nodiscard]] index_t pattern_words() const;

  /// Reconstructs the coalesced COO entry list (mode-0 tree walk; entries
  /// come out lexicographically sorted). The inverse of construction — used
  /// to re-partition an already-compressed tensor, e.g. for the
  /// dist::SparseBlockDist grid decomposition. Valid under both layouts:
  /// tree 0's mode order is the identity in each.
  [[nodiscard]] CooTensor to_coo() const;

  /// The fiber tree *rooted* at `root_mode`. Under kHalf only modes
  /// [0, tree_count()) have a root tree — use walk_for() for the general
  /// mode→tree mapping.
  [[nodiscard]] const Tree& tree(int root_mode) const {
    PARPP_CHECK(root_mode >= 0 && root_mode < tree_count(), "tree: mode ",
                root_mode, " has no root tree (layout keeps ", tree_count(),
                " trees) — use walk_for()");
    return trees_[static_cast<std::size_t>(root_mode)];
  }

  /// How the MTTKRP of `mode` traverses the tensor.
  struct Walk {
    const Tree* tree = nullptr;
    int tree_index = 0;  ///< index into the tree array (vals mirrors key)
    /// false: `mode` is the tree's root — classic upward walk. true:
    /// `mode` is the tree's leaf level — downward product-carrying walk.
    bool leaf = false;
  };
  [[nodiscard]] Walk walk_for(int mode) const;

 private:
  void build(const CooTensor& coo);

  std::vector<index_t> shape_;
  index_t nnz_ = 0;
  double dense_size_ = 0.0;  ///< CooTensor::dense_size() of the source
  double squared_norm_ = 0.0;
  CsfLayout layout_ = CsfLayout::kAllModes;
  std::vector<Tree> trees_;  ///< one per root mode (kAllModes) or ceil(N/2)
};

/// fp32 mirrors of a CsfTensor's per-tree value arrays, indexed like the
/// tensor's trees (CsfTensor::Walk::tree_index). Engines build one mirror
/// bank per tensor and reuse it across sweeps — tensor values are
/// immutable, so unlike factor mirrors it never re-syncs.
struct CsfValsF32 {
  std::vector<std::vector<float>> trees;
  void sync(const CsfTensor& t);
  [[nodiscard]] const float* tree_vals(int tree_index) const {
    PARPP_ASSERT(tree_index >= 0 &&
                     tree_index < static_cast<int>(trees.size()),
                 "CsfValsF32: bad tree index ", tree_index);
    return trees[static_cast<std::size_t>(tree_index)].data();
  }
};

}  // namespace parpp::tensor
