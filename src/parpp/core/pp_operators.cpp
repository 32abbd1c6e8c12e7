#include "parpp/core/pp_operators.hpp"

#include <algorithm>

#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/tensor/mttkrp_sparse.hpp"
#include "parpp/tensor/mttv.hpp"
#include "parpp/tensor/ttm.hpp"

namespace parpp::core {

PpOperators::PpOperators(const tensor::DenseTensor& t,
                         const std::vector<la::Matrix>& factors,
                         Profile* profile)
    : t_(&t), factors_(&factors), profile_(profile), n_(t.order()) {
  PARPP_CHECK(n_ >= 3, "pairwise perturbation requires order >= 3");
  PARPP_CHECK(static_cast<int>(factors.size()) == n_,
              "PpOperators: factor count mismatch");
}

PpOperators::PpOperators(const tensor::CsfTensor& t,
                         const std::vector<la::Matrix>& factors,
                         Profile* profile)
    : sparse_t_(&t), factors_(&factors), profile_(profile), n_(t.order()) {
  PARPP_CHECK(n_ >= 3, "pairwise perturbation requires order >= 3");
  PARPP_CHECK(static_cast<int>(factors.size()) == n_,
              "PpOperators: factor count mismatch");
  PARPP_CHECK(t.layout() == tensor::CsfLayout::kAllModes,
              "PpOperators: the pair-operator walks need a root tree per "
              "mode — build the CsfTensor with CsfLayout::kAllModes");
}

int PpOperators::root_exclusion_for(int i, int j) const {
  for (int c : {0, n_ - 1, n_ - 2}) {
    if (c != i && c != j) return c;
  }
  PARPP_CHECK(false, "no admissible root exclusion for pair (", i, ",", j, ")");
  return -1;
}

const PpOperators::Node& PpOperators::ensure_set(int c,
                                                 const std::vector<int>& set,
                                                 const TreeEngineBase* donor) {
  auto it = memo_.find(set);
  if (it != memo_.end()) return it->second;

  Profile& prof = profile_ ? *profile_ : Profile::thread_default();

  // Donor lookup: an exactly-matching current intermediate from the regular
  // sweep's cache can be adopted wholesale.
  if (donor) {
    if (auto d = donor->find_current_superset(set);
        d && d->modes.size() == set.size()) {
      Node node;
      node.data = d->data;  // copy; donor cache stays valid
      node.modes = d->modes;
      return memo_.emplace(set, std::move(node)).first->second;
    }
  }

  const std::vector<int> full = [&] {
    std::vector<int> f;
    for (int m = 0; m < n_; ++m)
      if (m != c) f.push_back(m);
    return f;
  }();

  if (set == full) {
    // First-level intermediate: one TTM on mode c, into workspace-backed
    // storage recycled across builds.
    Node node;
    node.data = tensor::DenseTensor(ws_);
    tensor::ttm_first_into(*t_, c, (*factors_)[static_cast<std::size_t>(c)],
                           node.data, &prof);
    ++last_build_ttms_;
    node.modes = full;
    return memo_.emplace(set, std::move(node)).first->second;
  }

  // Parent on the canonical chain removes elements of full \ set in
  // descending order, so the parent re-adds the smallest missing element.
  std::vector<int> missing;
  std::set_difference(full.begin(), full.end(), set.begin(), set.end(),
                      std::back_inserter(missing));
  PARPP_ASSERT(!missing.empty(), "ensure_set: set not below root");
  const int q = missing.front();
  std::vector<int> parent_set = set;
  parent_set.insert(
      std::upper_bound(parent_set.begin(), parent_set.end(), q), q);
  const Node& parent = ensure_set(c, parent_set, donor);

  const auto pit = std::find(parent.modes.begin(), parent.modes.end(), q);
  PARPP_ASSERT(pit != parent.modes.end(), "parent missing contract mode");
  const int pos = static_cast<int>(pit - parent.modes.begin());

  Node node;
  node.data = tensor::DenseTensor(ws_);
  tensor::mttv_into(parent.data, pos,
                    (*factors_)[static_cast<std::size_t>(q)], node.data,
                    &prof);
  node.modes = parent.modes;
  node.modes.erase(node.modes.begin() + pos);
  return memo_.emplace(set, std::move(node)).first->second;
}

void PpOperators::build_sparse() {
  if (mp_.size() != static_cast<std::size_t>(n_))
    mp_.resize(static_cast<std::size_t>(n_));
  last_build_ttms_ = 0;
  Profile& prof = profile_ ? *profile_ : Profile::thread_default();

  // Pair operators via the two-free-mode CSF walk. The map entries keep
  // workspace-backed storage across rebuilds (shapes are build-invariant),
  // so the periodic PP initializations never allocate after the first.
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      PairOp& op = pairs_[std::make_pair(i, j)];
      if (op.modes.empty()) op.data = tensor::DenseTensor(ws_);
      tensor::pair_mttkrp_csf_into(*sparse_t_, *factors_, i, j, op.data,
                                   &prof, &ws_);
      op.modes = {i, j};
    }
  }
  built_ = true;

  // Leaves M_p(n): the sparse engine's exact MTTKRP at the snapshot
  // factors (the CSF analogue of contracting the partner mode out of a
  // pair operator, with the same no-densification guarantee).
  for (int m = 0; m < n_; ++m)
    tensor::mttkrp_csf_into(*sparse_t_, *factors_, m,
                            mp_[static_cast<std::size_t>(m)], &prof, &ws_);
}

void PpOperators::build(const TreeEngineBase* donor) {
  if (sparse_t_ != nullptr) {
    build_sparse();
    return;
  }
  memo_.clear();
  if (mp_.size() != static_cast<std::size_t>(n_))
    mp_.resize(static_cast<std::size_t>(n_));
  last_build_ttms_ = 0;

  // Pair operators. Existing map entries (shapes are build-invariant) are
  // assigned in place so periodic rebuilds reuse their buffers.
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      const int c = root_exclusion_for(i, j);
      const Node& node = ensure_set(c, {i, j}, donor);
      PairOp& op = pairs_[std::make_pair(i, j)];
      op.data = node.data;
      op.modes = node.modes;
    }
  }

  built_ = true;  // pair operators are complete; leaves draw on them

  // Leaves M_p(n): contract the partner mode out of an existing pair.
  Profile& prof = profile_ ? *profile_ : Profile::thread_default();
  for (int m = 0; m < n_; ++m) {
    const int partner = m == 0 ? 1 : 0;
    const auto& op = pair_op(std::min(m, partner), std::max(m, partner));
    const auto pit = std::find(op.modes.begin(), op.modes.end(), partner);
    const int pos = static_cast<int>(pit - op.modes.begin());
    tensor::mttv_into(op.data, pos,
                      (*factors_)[static_cast<std::size_t>(partner)],
                      leaf_scratch_, &prof);
    la::Matrix& mp = mp_[static_cast<std::size_t>(m)];
    if (mp.rows() != leaf_scratch_.extent(0) ||
        mp.cols() != leaf_scratch_.extent(1))
      mp = la::Matrix(leaf_scratch_.extent(0), leaf_scratch_.extent(1));
    std::copy(leaf_scratch_.data(), leaf_scratch_.data() + leaf_scratch_.size(),
              mp.data());
  }

  // Keep only the pair operators and leaves; drop larger intermediates
  // (their buffers return to the workspace for the next build).
  memo_.clear();
}

const PpOperators::PairOp& PpOperators::pair_op(int i, int j) const {
  PARPP_CHECK(built_, "pair_op: operators not built");
  PARPP_CHECK(i < j, "pair_op: require i < j");
  return pairs_.at(std::make_pair(i, j));
}

PpOperators::PairOp& PpOperators::mutable_pair_op(int i, int j) {
  PARPP_CHECK(built_, "mutable_pair_op: operators not built");
  PARPP_CHECK(i < j, "mutable_pair_op: require i < j");
  return pairs_.at(std::make_pair(i, j));
}

const la::Matrix& PpOperators::mttkrp_p(int n) const {
  PARPP_CHECK(built_, "mttkrp_p: operators not built");
  return mp_[static_cast<std::size_t>(n)];
}

index_t PpOperators::operator_elements() const {
  index_t total = 0;
  for (const auto& [key, op] : pairs_) total += op.data.size();
  return total;
}

}  // namespace parpp::core
