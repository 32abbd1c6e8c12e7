#include "parpp/core/pp_operators.hpp"

#include <algorithm>
#include <set>

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

void PpOperators::build_root(int c, const TreeEngineBase* donor) {
  std::vector<int> full;
  for (int m = 0; m < n_; ++m)
    if (m != c) full.push_back(m);

  // The lazy recursion's walk, planned up front: from each pair rooted at
  // c, climb the canonical chain (each parent re-adds the smallest missing
  // mode, so a chain contracts the missing modes largest first) until the
  // donor holds the set, the set was already reached, or the set is the
  // first-level node. Only the sets the donor does not hold are computed.
  std::set<std::vector<int>> reached;
  std::map<std::vector<int>, detail::NodePtr> adopted;
  Kids kids;
  bool ttm = false;
  for (int i = 0; i < n_; ++i) {
    for (int j = i + 1; j < n_; ++j) {
      if (root_exclusion_for(i, j) != c) continue;
      std::vector<int> set{i, j};
      while (reached.insert(set).second) {
        if (donor) {
          if (auto d = donor->find_current_superset(set);
              d && d->modes.size() == set.size()) {
            adopted.emplace(set, std::move(d));
            break;
          }
        }
        if (set == full) {
          ttm = true;
          break;
        }
        int q = 0;  // the smallest mode of full missing from set
        while (q == c || std::binary_search(set.begin(), set.end(), q)) ++q;
        std::vector<int> parent = set;
        parent.insert(std::upper_bound(parent.begin(), parent.end(), q), q);
        kids[parent].push_back(set);
        set = std::move(parent);
      }
    }
  }

  // A pair the donor holds outright is copied: it outlives the donor's
  // cache. Any larger donor node is read in place.
  for (const auto& [set, d] : adopted) {
    if (set.size() != 2) continue;
    PairOp& op = pairs_[std::make_pair(set[0], set[1])];
    op.data = d->data;
    op.modes = d->modes;
  }
  Profile& prof = profile_ ? *profile_ : Profile::thread_default();
  if (ttm) {
    const la::Matrix& a = (*factors_)[static_cast<std::size_t>(c)];
    ++last_build_ttms_;
    if (full.size() == 2) {  // order 3: the first-level node is a pair
      PairOp& op = pairs_[std::make_pair(full[0], full[1])];
      tensor::ttm_first_into(*t_, c, a, op.data, &prof);
      op.modes = full;
    } else {
      tensor::ttm_first_into(*t_, c, a, first_, &prof);
      expand(full, first_, full, kids);
    }
  }
  for (const auto& [set, d] : adopted) expand(set, d->data, d->modes, kids);
}

void PpOperators::expand(const std::vector<int>& set,
                         const tensor::DenseTensor& data,
                         const std::vector<int>& modes, const Kids& kids) {
  const auto it = kids.find(set);
  if (it == kids.end()) return;
  const std::vector<std::vector<int>>& children = it->second;

  // Every computed child of this node in one pass over it (one mttv_into
  // per child on a team): pairs straight into their operators, larger sets
  // into the build's workspace.
  std::vector<tensor::DenseTensor> inner;
  inner.reserve(children.size());
  std::vector<std::vector<int>> inner_modes;
  std::vector<tensor::MttvTarget> targets;
  for (const std::vector<int>& child : children) {
    int q = -1;
    for (int m : set)
      if (!std::binary_search(child.begin(), child.end(), m)) q = m;
    const auto pit = std::find(modes.begin(), modes.end(), q);
    PARPP_ASSERT(pit != modes.end(), "expand: parent missing contract mode");
    std::vector<int> child_modes = modes;
    child_modes.erase(child_modes.begin() + (pit - modes.begin()));
    tensor::DenseTensor* out = nullptr;
    if (child.size() == 2) {
      PairOp& op = pairs_[std::make_pair(child[0], child[1])];
      op.modes = std::move(child_modes);
      out = &op.data;
    } else {
      out = &inner.emplace_back(ws_);
      inner_modes.push_back(std::move(child_modes));
    }
    targets.push_back({static_cast<int>(pit - modes.begin()),
                       &(*factors_)[static_cast<std::size_t>(q)], out});
  }
  tensor::mttv_multi_into(data, targets,
                          profile_ ? profile_ : &Profile::thread_default());

  std::size_t next = 0;
  for (const std::vector<int>& child : children) {
    if (child.size() == 2) continue;
    expand(child, inner[next], inner_modes[next], kids);
    ++next;
  }
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
  if (mp_.size() != static_cast<std::size_t>(n_))
    mp_.resize(static_cast<std::size_t>(n_));
  last_build_ttms_ = 0;

  // One root exclusion at a time, each root's nodes released before the
  // next root's first-level node exists. The node sets of different roots
  // never overlap (sets under c = 0 lack mode 0, the others hold it), so
  // each set is computed by the same chain in any root order. One
  // first-level buffer, sized once for the largest root, serves all three.
  const index_t r = (*factors_)[0].cols();
  index_t largest = 0;
  for (int c : {0, n_ - 1, n_ - 2})
    largest = std::max(largest, t_->extent_product(0, c) *
                                    t_->extent_product(c + 1, n_) * r);
  if (n_ > 3) first_.reshape({largest});
  for (int c : {0, n_ - 1, n_ - 2}) build_root(c, donor);

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
