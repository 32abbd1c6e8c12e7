// Storage-agnostic distributed tensor problems for the sweep loop.
//
// dist::LocalProblem is the complete contract between one grid block's
// storage and the Algorithm 3/4 sweep loop — the (padded) block shape the
// slice factors must match, the block's squared Frobenius norm feeding the
// Eq. (3) residual reductions, the local MTTKRP engine factory, and the
// pairwise-perturbation operator factory for the Algorithm 4
// initialization. dist::DistProblem hands out LocalProblems per grid
// coordinate: the dense slab extraction (DenseBlockProblem), the sparse
// blocks cut from the caller's CSF trees (SparseBlockDist, sparse_dist.hpp),
// and the one block of a 1-rank solve, which views the caller's tensor
// (WholeTensorProblem).
// Sweep loops written against these interfaces cannot see the storage
// class, so they cannot densify.
#pragma once

#include <memory>
#include <vector>

#include "parpp/core/mttkrp_engine.hpp"
#include "parpp/dist/dist_tensor.hpp"
#include "parpp/tensor/csf_tensor.hpp"

namespace parpp::core {
class PpOperators;
}  // namespace parpp::core

namespace parpp::dist {

/// How a DistProblem carves the global index space into grid blocks.
enum class PartitionKind {
  kUniformBlocks,  ///< uniform hyper-rectangular slabs (Sec. II-A geometry)
  kBalancedNnz,    ///< nnz-balanced per-mode chains-on-chains boundaries
};

class LocalProblem {
 public:
  virtual ~LocalProblem() = default;

  /// Padded block extents; equals BlockDist::local_shape() of the build.
  [[nodiscard]] virtual const std::vector<index_t>& shape() const = 0;

  /// Squared Frobenius norm of the block (padding contributes zero); the
  /// world All-Reduce of these is ||T||^2 in Eq. (3).
  [[nodiscard]] virtual double squared_norm() const = 0;

  /// Engine over the block storage, bound to the slice factor matrices
  /// (dist::FactorDist::slices(); both must outlive the engine).
  [[nodiscard]] virtual std::unique_ptr<core::MttkrpEngine> make_engine(
      core::EngineKind kind, const std::vector<la::Matrix>& slice_factors,
      Profile* profile, const core::EngineOptions& options) const = 0;

  /// PP operators over the block storage (Algorithm 4 line 2); bound like
  /// the engine. The LocalProblem must outlive the returned operators.
  [[nodiscard]] virtual std::unique_ptr<core::PpOperators> make_pp_operators(
      const std::vector<la::Matrix>& slice_factors,
      Profile* profile) const = 0;

  /// Nonzeros stored in the block, or -1 when the storage has no meaningful
  /// sparsity (dense slabs). Feeds the per-rank load-imbalance report.
  [[nodiscard]] virtual index_t nnz() const { return -1; }
};

/// The local problem over one dense or CSF block. view_block reads `t` in
/// place, so `t` must outlive the problem and every engine made from it;
/// own_block keeps the block alive itself. A view takes the block's
/// `squared_norm` (t.squared_norm()) from its caller, which holds it;
/// builds with PARPP_ENABLE_ASSERTS recompute it and check.
[[nodiscard]] std::unique_ptr<LocalProblem> view_block(
    const tensor::DenseTensor& t, double squared_norm);
[[nodiscard]] std::unique_ptr<LocalProblem> view_block(
    const tensor::CsfTensor& t, double squared_norm);
[[nodiscard]] std::unique_ptr<LocalProblem> own_block(
    tensor::DenseTensor block);
[[nodiscard]] std::unique_ptr<LocalProblem> own_block(tensor::CsfTensor block);

/// A global decomposition input that knows how to carve itself into
/// per-rank local problems over a BlockDist.
class DistProblem {
 public:
  virtual ~DistProblem() = default;

  [[nodiscard]] virtual const std::vector<index_t>& global_shape() const = 0;

  /// Block geometry over `grid`. The default is the uniform split; nnz-aware
  /// problems override this with their non-uniform boundaries. Called
  /// concurrently from every simulated rank body; every rank must receive
  /// an identical geometry (deterministic, grid-only inputs).
  [[nodiscard]] virtual BlockDist make_block_dist(
      const mpsim::ProcessorGrid& grid) const {
    return BlockDist(grid, global_shape());
  }

  /// Builds the local problem for the block at grid coordinates `coords`.
  /// Called concurrently from every simulated rank body — implementations
  /// must be thread-safe (const reads of the shared global storage).
  [[nodiscard]] virtual std::unique_ptr<LocalProblem> make_local(
      const BlockDist& dist, const std::vector<int>& coords) const = 0;
};

/// The one block of a 1-rank solve: its local problem views the caller's
/// dense or CSF tensor, with no block copy and no repartition. Non-owning —
/// `t` must outlive this and every local problem made from it.
/// `squared_norm` is t.squared_norm(), which the caller already holds
/// (solve() checks the norm up front), so a dense tensor is not read twice
/// for it.
template <class Storage>
class WholeTensorProblem final : public DistProblem {
 public:
  WholeTensorProblem(const Storage& t, double squared_norm)
      : t_(&t), squared_norm_(squared_norm) {}

  [[nodiscard]] const std::vector<index_t>& global_shape() const override {
    return t_->shape();
  }
  [[nodiscard]] std::unique_ptr<LocalProblem> make_local(
      const BlockDist& dist,
      const std::vector<int>& /*coords*/) const override {
    PARPP_CHECK(dist.local_shape() == t_->shape(),
                "WholeTensorProblem: the grid must have exactly one block");
    return view_block(*t_, squared_norm_);
  }

 private:
  const Storage* t_;
  double squared_norm_;
};

/// Dense storage: hyper-rectangular zero-padded slabs via
/// extract_local_block (Sec. II-A). Non-owning — `t` must outlive this and
/// every local problem made from it.
class DenseBlockProblem final : public DistProblem {
 public:
  explicit DenseBlockProblem(const tensor::DenseTensor& t) : t_(&t) {}

  [[nodiscard]] const std::vector<index_t>& global_shape() const override {
    return t_->shape();
  }
  [[nodiscard]] std::unique_ptr<LocalProblem> make_local(
      const BlockDist& dist, const std::vector<int>& coords) const override;

 private:
  const tensor::DenseTensor* t_;
};

}  // namespace parpp::dist
