// Pairwise-perturbation operator construction (paper Sec. II-D, Fig. 1b).
//
// The PP initialization step materializes, at the snapshot factors A_p:
//   * pair operators  M_p(i,j) = T contracted with A_p(k) for all k not in
//     {i,j}  — an (s_i, s_j, R) tensor per pair i < j;
//   * the full MTTKRPs M_p(n) for every mode.
//
// The build uses a PP dimension tree: three first-level TTM intermediates
// (sets full\{0}, full\{N-1}, full\{N-2}) cover every pair; chains of mTTVs
// produce the pairs, and the leaves contract one more mode out of a pair.
// When a regular-sweep engine is supplied as donor, a version-current cached
// node holding exactly a needed set is adopted — in the steady state this
// amortizes one of the three first-level TTMs (footnote 1), giving the
// 4 s^N R leading cost of Table I.
//
// The build moves only the bytes this costs:
//   * Build order: one root exclusion at a time (c = 0, N-1, N-2), each
//     root's nodes released before the next root's first-level node
//     exists, so one first-level buffer serves all three roots.
//   * In-place donor: an adopted node is read from the donor's cache
//     directly (the NodePtr is held for the build); only an adopted pair
//     is copied, because it outlives the build.
//   * One pass per node: on one thread (each rank of a multi-rank solve)
//     each node is read once by tensor::mttv_multi_into, which writes
//     every computed child it feeds — pairs straight into their operators
//     — with mttv_into's bits (each output element adds its contracted
//     index in increasing order); on a team each child is its own
//     mttv_into. Each set is computed by the same canonical chain as a
//     lazy per-set recursion: a TTM on c, then the missing modes
//     contracted largest first.
#pragma once

#include <map>
#include <vector>

#include "parpp/core/dim_tree.hpp"
#include "parpp/la/matrix.hpp"
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
  /// same dense pair operators either storage produces.
  PpOperators(const tensor::CsfTensor& t,
              const std::vector<la::Matrix>& factors,
              Profile* profile = nullptr);

  /// (Re)builds all operators at the current factor values. `donor` may be
  /// the regular-sweep tree engine (or null; sparse builds have no tree
  /// cache to amortize against and ignore it).
  void build(const TreeEngineBase* donor = nullptr);

  [[nodiscard]] bool built() const { return built_; }
  [[nodiscard]] int order() const { return n_; }
  [[nodiscard]] bool sparse() const { return sparse_t_ != nullptr; }

  /// Build-arena counters: steady-state rebuilds must hold both flat
  /// (tests assert the PP phase never allocates after the first build).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return ws_.total_bytes();
  }
  [[nodiscard]] std::size_t workspace_allocations() const {
    return ws_.allocation_count();
  }

  /// Pair operator for i < j; `modes` reports the storage order of its two
  /// tensor modes (the rank mode is always last).
  struct PairOp {
    tensor::DenseTensor data;
    std::vector<int> modes;
  };
  [[nodiscard]] const PairOp& pair_op(int i, int j) const;
  /// Mutable access for drivers that post-process operators in place (the
  /// reference PP implementation reduces them across ranks).
  [[nodiscard]] PairOp& mutable_pair_op(int i, int j);

  /// M_p(n): the exact MTTKRP at the snapshot factors.
  [[nodiscard]] const la::Matrix& mttkrp_p(int n) const;

  /// Diagnostic: first-level TTMs executed by the last build (2 when the
  /// donor amortization fired, 3 otherwise; N=3..; tests rely on this).
  [[nodiscard]] long last_build_ttms() const { return last_build_ttms_; }

  /// Total elements held by the pair operators (auxiliary memory proxy).
  [[nodiscard]] index_t operator_elements() const;

 private:
  /// Computed children of each node of one root, keyed by sorted mode set.
  using Kids = std::map<std::vector<int>, std::vector<std::vector<int>>>;

  /// Root set choice for a pair: the first of {0, N-1, N-2} not contained
  /// in the pair.
  [[nodiscard]] int root_exclusion_for(int i, int j) const;

  /// Writes every pair operator rooted at c: adopts what the donor holds,
  /// runs the first-level TTM if still needed, and expands the rest.
  void build_root(int c, const TreeEngineBase* donor);
  /// Writes the computed children of node `set` (storage order `modes`)
  /// in one mTTV pass over `data`, then expands the children in turn.
  void expand(const std::vector<int>& set, const tensor::DenseTensor& data,
              const std::vector<int>& modes, const Kids& kids);

  void build_sparse();

  const tensor::DenseTensor* t_ = nullptr;
  const tensor::CsfTensor* sparse_t_ = nullptr;
  const std::vector<la::Matrix>* factors_;
  Profile* profile_;
  int n_;
  bool built_ = false;
  long last_build_ttms_ = 0;
  /// Arena for the first-level node and build-chain intermediates: each
  /// root's nodes release their buffers here before the next root's, so
  /// periodic rebuilds do not allocate.
  util::KernelWorkspace ws_;
  std::map<std::pair<int, int>, PairOp> pairs_;
  std::vector<la::Matrix> mp_;
  tensor::DenseTensor first_{ws_};
  tensor::DenseTensor leaf_scratch_{ws_};
};

}  // namespace parpp::core
