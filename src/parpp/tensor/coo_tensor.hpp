// Coordinate-format sparse tensor (the ingest/builder storage).
#pragma once

#include <span>
#include <vector>

#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/util/common.hpp"

namespace parpp::tensor {

/// Sparse tensor in coordinate format: nnz (index tuple, value) pairs plus
/// an explicit shape. This is the mutable ingest form — push() accepts
/// entries in any order, including duplicate coordinates, and coalesce()
/// sorts lexicographically and merges duplicates (summing their values, as
/// FROSTT loaders conventionally do). Compute kernels run on the compressed
/// CsfTensor built from a coalesced CooTensor; only the reference MTTKRP
/// (tensor::mttkrp_coo) reads COO directly.
class CooTensor {
 public:
  CooTensor() = default;
  explicit CooTensor(std::vector<index_t> shape);

  [[nodiscard]] int order() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] const std::vector<index_t>& shape() const { return shape_; }
  [[nodiscard]] index_t extent(int mode) const {
    PARPP_ASSERT(mode >= 0 && mode < order(), "extent: bad mode ", mode);
    return shape_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] index_t nnz() const {
    return static_cast<index_t>(vals_.size());
  }
  /// Dense element count prod(shape) as a double (immune to overflow for
  /// pathological shapes) — the denominator of density().
  [[nodiscard]] double dense_size() const;
  [[nodiscard]] double density() const;

  void reserve(index_t nnz);
  /// Appends one entry; idx is 0-indexed, one coordinate per mode.
  void push(std::span<const index_t> idx, double value);

  [[nodiscard]] index_t index(index_t entry, int mode) const {
    PARPP_ASSERT(entry >= 0 && entry < nnz(), "index: bad entry ", entry);
    return idx_[static_cast<std::size_t>(entry * order() + mode)];
  }
  [[nodiscard]] double value(index_t entry) const {
    PARPP_ASSERT(entry >= 0 && entry < nnz(), "value: bad entry ", entry);
    return vals_[static_cast<std::size_t>(entry)];
  }

  /// Sorts entries lexicographically, merges duplicate coordinates (values
  /// sum, in push order) and drops exact zeros. Idempotent. The sort is one
  /// sort_pass per mode, last mode first: O(N·(nnz + extent)) and the same
  /// permutation as a stable comparator sort, so merged sums are
  /// deterministic and independent of the thread count.
  void coalesce();

  /// One stable counting-sort pass: writes to dst[0, nnz) the entries
  /// src[0, nnz) (nullptr: 0, 1, ..., nnz-1), ordered by their coordinate
  /// in `mode`, ties kept in src order. The entries are cut into fixed
  /// blocks; each block counts its keys, offsets are prefixed key by key
  /// and within a key block by block, and each block scatters in order. A
  /// stable sort's output is unique, so the blocks only decide who does the
  /// work: they run on the OpenMP team from kParallelSortMin entries. The
  /// count table takes at most nnz + extent(mode) words.
  void sort_pass(int mode, const index_t* src, index_t* dst) const;
  /// Entries from which sort_pass runs its blocks on the team.
  static constexpr index_t kParallelSortMin = index_t{1} << 16;
  /// True when the entry list is sorted and duplicate-free (the invariant
  /// CsfTensor construction and squared_norm() require). Trivially true for
  /// an empty tensor; push() clears it.
  [[nodiscard]] bool coalesced() const { return coalesced_; }

  /// Sum of squared values. Requires a coalesced tensor — with duplicate
  /// coordinates present the per-entry squares do not sum to ||T||_F^2.
  [[nodiscard]] double squared_norm() const;
  [[nodiscard]] double frobenius_norm() const;

  /// Materializes the dense tensor (duplicates accumulate). Test/debug and
  /// the explicit densified baselines only — never on a solve path.
  [[nodiscard]] DenseTensor densify() const;

  /// All entries of `t` with |value| > threshold, coalesced by construction.
  [[nodiscard]] static CooTensor from_dense(const DenseTensor& t,
                                            double threshold = 0.0);

 private:
  std::vector<index_t> shape_;
  std::vector<index_t> idx_;  ///< nnz * order, entry-major
  std::vector<double> vals_;
  bool coalesced_ = true;
};

}  // namespace parpp::tensor
