// Pairwise-perturbation operator construction (paper Sec. II-D, Fig. 1b).
//
// The PP initialization step materializes, at the snapshot factors A_p:
//   * pair operators  M_p(i,j) = T contracted with A_p(k) for all k not in
//     {i,j}  — an (s_i, s_j, R) tensor per pair i < j;
//   * the full MTTKRPs M_p(n) for every mode.
//
// The build uses a PP dimension tree: three first-level TTM intermediates
// (sets full\{0}, full\{N-1}, full\{N-2}) cover every pair; chains of mTTVs
// with per-(root, subset) memoization produce the pairs and leaves. When a
// regular-sweep engine is supplied as donor, any version-current cached
// intermediate covering a needed set is reused — in the steady state this
// amortizes one of the three first-level TTMs (footnote 1), giving the
// 4 s^N R leading cost of Table I.
#pragma once

#include <map>
#include <vector>

#include "parpp/core/dim_tree.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/la/scalar.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/util/profile.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::core {

class PpOperators {
 public:
  /// Binds to the tensor and the factor vector whose *current* values are
  /// snapshotted on each build().
  PpOperators(const tensor::DenseTensor& t,
              const std::vector<la::Matrix>& factors,
              Profile* profile = nullptr);

  /// Sparse storage: pair operators come from two-free-mode CSF walks
  /// (tensor::pair_mttkrp_csf_into) and the leaves M_p(n) are the sparse
  /// engine's exact MTTKRPs — nothing is densified, and the approximated
  /// sweeps downstream (PpApprox, the Algorithm 4 corrections) consume the
  /// same dense pair operators either storage produces. Under
  /// la::Scalar::kF32 the build streams fp32 factor/value mirrors through
  /// the same walks (fp64 accumulation) and each PairOp additionally keeps
  /// an fp32 copy of its data for the fp32-streaming corrections in
  /// PpApprox. The dense constructor above is fp64-only.
  PpOperators(const tensor::CsfTensor& t,
              const std::vector<la::Matrix>& factors,
              Profile* profile = nullptr,
              la::Scalar scalar = la::Scalar::kF64);

  /// (Re)builds all operators at the current factor values. `donor` may be
  /// the regular-sweep tree engine (or null; sparse builds have no tree
  /// cache to amortize against and ignore it).
  void build(const TreeEngineBase* donor = nullptr);

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] int order() const { return n_; }
  [[nodiscard]] bool sparse() const { return sparse_t_ != nullptr; }
  [[nodiscard]] la::Scalar scalar() const { return scalar_; }

  /// Build-arena counters: steady-state rebuilds must hold both flat
  /// (tests assert the PP phase never allocates after the first build).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return ws_.total_bytes();
  }
  [[nodiscard]] std::size_t workspace_allocations() const {
    return ws_.allocation_count();
  }

  /// Pair operator for i < j; `modes` reports the storage order of its two
  /// tensor modes (the rank mode is always last). Under kF32, `data_f32`
  /// mirrors `data` (f32_valid true) so consumers can stream half the
  /// bytes; `data` itself stays the fp64 accumulation result.
  struct PairOp {
    tensor::DenseTensor data;
    std::vector<int> modes;
    std::vector<float> data_f32;
    bool f32_valid = false;
  };
  [[nodiscard]] const PairOp& pair_op(int i, int j) const;
  /// Mutable access for drivers that post-process operators in place (the
  /// reference PP implementation reduces them across ranks). Invalidates
  /// the operator's fp32 mirror — post-processed operators are consumed
  /// through the fp64 data.
  [[nodiscard]] PairOp& mutable_pair_op(int i, int j);

  /// M_p(n): the exact MTTKRP at the snapshot factors.
  [[nodiscard]] const la::Matrix& mttkrp_p(int n) const;

  /// Diagnostic: first-level TTMs executed by the last build (2 when the
  /// donor amortization fired, 3 otherwise; N=3..; tests rely on this).
  [[nodiscard]] long last_build_ttms() const { return last_build_ttms_; }

  /// Total elements held by the pair operators (auxiliary memory proxy).
  [[nodiscard]] index_t operator_elements() const;

 private:
  struct Node {
    tensor::DenseTensor data;
    std::vector<int> modes;
  };

  /// Root set choice for a pair: the first of {0, N-1, N-2} not contained
  /// in the pair.
  [[nodiscard]] int root_exclusion_for(int i, int j) const;

  /// Ensures the intermediate covering `set` (sorted) under root exclusion
  /// `c`; memoized on the set.
  const Node& ensure_set(int c, const std::vector<int>& set,
                         const TreeEngineBase* donor);

  void build_sparse();

  const tensor::DenseTensor* t_ = nullptr;
  const tensor::CsfTensor* sparse_t_ = nullptr;
  const std::vector<la::Matrix>* factors_;
  Profile* profile_;
  int n_;
  la::Scalar scalar_ = la::Scalar::kF64;
  /// fp32 build-state mirrors (kF32 sparse builds only): factor mirrors
  /// re-synced at each build (the build snapshots the current factors) and
  /// a one-time value mirror of the immutable tensor.
  std::vector<la::MatrixF32> factor_mirrors_;
  tensor::CsfValsF32 vals32_;
  bool vals32_synced_ = false;
  bool built_ = false;
  long last_build_ttms_ = 0;
  /// Arena for build-chain intermediates: memo nodes release their buffers
  /// here when the build finishes, so periodic rebuilds do not allocate.
  util::KernelWorkspace ws_;
  std::map<std::vector<int>, Node> memo_;
  std::map<std::pair<int, int>, PairOp> pairs_;
  std::vector<la::Matrix> mp_;
  tensor::DenseTensor leaf_scratch_{ws_};
};

}  // namespace parpp::core
