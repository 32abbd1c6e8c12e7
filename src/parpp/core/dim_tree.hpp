// Version-stamped dimension-tree node cache and the standard DT engine.
//
// Both the standard dimension tree (Sec. II-C) and the multi-sweep tree
// (Sec. III) materialize intermediates
//
//   M(S) = T contracted with A(j) for every mode j outside S,
//
// stored with the rank mode last. Here every cached node records the
// *version* of each factor contracted into it; a node is reusable iff all
// recorded versions are current. This makes caching semantically exact —
// the engines differ only in which node chains they walk, and the paper's
// amortization (2 TTMs/sweep for DT, N TTMs per N-1 sweeps for MSDT) falls
// out of the ALS update order.
#pragma once

#include <map>
#include <memory>
#include <utility>

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::core {

namespace detail {

struct TreeNode {
  tensor::DenseTensor data;  ///< extents follow `modes`, rank mode last
  std::vector<int> modes;    ///< storage order of remaining tensor modes
  std::vector<std::pair<int, std::uint64_t>> deps;  ///< (mode, version used)
};

using NodePtr = std::shared_ptr<const TreeNode>;

}  // namespace detail

/// Shared implementation for tree-based engines: factor versioning, the
/// node cache, and the two build primitives (from the raw tensor via one
/// TTM + mTTVs, and from a parent node via mTTVs).
class TreeEngineBase : public MttkrpEngine {
 public:
  TreeEngineBase(const tensor::DenseTensor& t,
                 const std::vector<la::Matrix>& factors, Profile* profile,
                 const EngineOptions& options);

  void notify_update(int mode) override;

  [[nodiscard]] long ttm_count() const override { return ttm_count_; }
  [[nodiscard]] long mttv_count() const override { return mttv_count_; }

  /// Number of live cached nodes (diagnostic; ablation benches watch this).
  [[nodiscard]] std::size_t cached_nodes() const { return cache_.size(); }
  /// Total elements held by cached nodes (auxiliary memory proxy).
  [[nodiscard]] index_t cached_elements() const;
  /// Bytes held by the node arena (steady-state sweeps must not grow this).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return ws_.total_bytes();
  }
  /// Backing allocations performed by the node arena since construction.
  [[nodiscard]] std::size_t workspace_allocations() const {
    return ws_.allocation_count();
  }

  /// Smallest cached, version-current node whose mode set contains `subset`
  /// (modes sorted ascending), or null. The pairwise-perturbation
  /// initialization uses this to amortize first-level intermediates from
  /// the preceding regular sweep (paper footnote 1).
  [[nodiscard]] detail::NodePtr find_current_superset(
      const std::vector<int>& subset) const;

 protected:
  [[nodiscard]] int order() const { return n_; }
  [[nodiscard]] const std::vector<la::Matrix>& factors() const {
    return *factors_;
  }
  [[nodiscard]] std::uint64_t version(int mode) const {
    return versions_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] bool node_current(const detail::TreeNode& node) const;

  /// Cyclic mode range key: modes {start, start+1, ..., start+len-1 mod N}.
  using RangeKey = std::pair<int, int>;

  /// Cache lookup; null if absent or stale (stale entries are erased).
  [[nodiscard]] detail::NodePtr cache_lookup(const RangeKey& key);
  void cache_store(const RangeKey& key, detail::NodePtr node);

  /// Builds the node covering cyclic range `key` directly from the raw
  /// tensor: one first-level TTM on a chosen mode of the complement, read
  /// in place whatever its position, then mTTVs for the rest.
  [[nodiscard]] detail::NodePtr build_from_raw(const RangeKey& key);

  /// Builds a child covering `key` from `parent` by contracting every
  /// parent mode outside the range.
  [[nodiscard]] detail::NodePtr build_from_parent(const detail::NodePtr& parent,
                                                  const RangeKey& key);

  /// Extracts the leaf (single-mode node) as the MTTKRP result matrix.
  [[nodiscard]] la::Matrix leaf_matrix(const detail::TreeNode& node) const;

  /// True if the range (cyclically) contains `mode`.
  [[nodiscard]] bool range_contains(const RangeKey& key, int mode) const {
    return ((mode - key.first) % n_ + n_) % n_ < key.second;
  }
  /// Modes of a cyclic range in cyclic order.
  [[nodiscard]] std::vector<int> range_modes(const RangeKey& key) const;

  /// Whether a node of `len` modes may be cached (level-combining option).
  [[nodiscard]] bool cacheable(int len) const {
    return max_cached_modes_ <= 0 || len <= max_cached_modes_;
  }

  Profile& profile() const {
    return profile_ ? *profile_ : Profile::thread_default();
  }

  /// Arena backing all cache-node storage: invalidated nodes return their
  /// buffers here, so steady-state sweeps rebuild without allocating.
  [[nodiscard]] util::KernelWorkspace& workspace() { return ws_; }

 private:
  const tensor::DenseTensor* t_;
  const std::vector<la::Matrix>* factors_;
  Profile* profile_;
  int n_;
  int max_cached_modes_;
  util::KernelWorkspace ws_;
  std::vector<std::uint64_t> versions_;
  std::map<RangeKey, detail::NodePtr> cache_;
  long ttm_count_ = 0;
  long mttv_count_ = 0;
};

/// Standard binary dimension tree engine: every leaf is reached by the
/// fixed contiguous-split descent from [0, N).
class DtEngine final : public TreeEngineBase {
 public:
  using TreeEngineBase::TreeEngineBase;

  [[nodiscard]] la::Matrix mttkrp(int mode) override;
  [[nodiscard]] std::string_view name() const override { return "DT"; }

 private:
  [[nodiscard]] detail::NodePtr ensure_contiguous(int lo, int len);
};

}  // namespace parpp::core
