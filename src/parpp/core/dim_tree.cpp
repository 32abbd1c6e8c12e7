#include "parpp/core/dim_tree.hpp"

#include <algorithm>

#include "parpp/core/msdt.hpp"
#include "parpp/tensor/mttkrp_fused.hpp"
#include "parpp/tensor/mttv.hpp"
#include "parpp/tensor/ttm.hpp"

namespace parpp::core {

const char* engine_kind_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kNaive: return "naive";
    case EngineKind::kDt: return "DT";
    case EngineKind::kMsdt: return "MSDT";
    case EngineKind::kSparse: return "sparse";
  }
  return "?";
}

TreeEngineBase::TreeEngineBase(const tensor::DenseTensor& t,
                               const std::vector<la::Matrix>& factors,
                               Profile* profile, const EngineOptions& options)
    : t_(&t),
      factors_(&factors),
      profile_(profile),
      n_(t.order()),
      max_cached_modes_(options.max_cached_modes),
      versions_(static_cast<std::size_t>(t.order()), 0) {
  PARPP_CHECK(static_cast<int>(factors.size()) == n_,
              "engine: factor count mismatch");
  for (int m = 0; m < n_; ++m) {
    PARPP_CHECK(factors[static_cast<std::size_t>(m)].rows() == t.extent(m),
                "engine: factor ", m, " rows mismatch");
  }
}

void TreeEngineBase::notify_update(int mode) {
  PARPP_CHECK(mode >= 0 && mode < n_, "notify_update: bad mode");
  ++versions_[static_cast<std::size_t>(mode)];
  // Opportunistically drop stale nodes to bound auxiliary memory.
  for (auto it = cache_.begin(); it != cache_.end();) {
    if (!node_current(*it->second))
      it = cache_.erase(it);
    else
      ++it;
  }
}

bool TreeEngineBase::node_current(const detail::TreeNode& node) const {
  for (const auto& [mode, ver] : node.deps) {
    if (versions_[static_cast<std::size_t>(mode)] != ver) return false;
  }
  return true;
}

index_t TreeEngineBase::cached_elements() const {
  index_t total = 0;
  for (const auto& [key, node] : cache_) total += node->data.size();
  return total;
}

detail::NodePtr TreeEngineBase::find_current_superset(
    const std::vector<int>& subset) const {
  detail::NodePtr best;
  for (const auto& [key, node] : cache_) {
    if (!node_current(*node)) continue;
    bool covers = true;
    for (int m : subset) {
      if (std::find(node->modes.begin(), node->modes.end(), m) ==
          node->modes.end()) {
        covers = false;
        break;
      }
    }
    if (covers && (!best || node->modes.size() < best->modes.size()))
      best = node;
  }
  return best;
}

detail::NodePtr TreeEngineBase::cache_lookup(const RangeKey& key) {
  auto it = cache_.find(key);
  if (it == cache_.end()) return nullptr;
  if (!node_current(*it->second)) {
    cache_.erase(it);
    return nullptr;
  }
  return it->second;
}

void TreeEngineBase::cache_store(const RangeKey& key, detail::NodePtr node) {
  if (cacheable(key.second)) cache_[key] = std::move(node);
}

std::vector<int> TreeEngineBase::range_modes(const RangeKey& key) const {
  std::vector<int> modes;
  modes.reserve(static_cast<std::size_t>(key.second));
  for (int i = 0; i < key.second; ++i) modes.push_back((key.first + i) % n_);
  return modes;
}

detail::NodePtr TreeEngineBase::build_from_raw(const RangeKey& key) {
  auto modes_keep = range_modes(key);
  std::vector<bool> keep(static_cast<std::size_t>(n_), false);
  for (int m : modes_keep) keep[static_cast<std::size_t>(m)] = true;

  std::vector<int> contract;
  for (int m = 0; m < n_; ++m)
    if (!keep[static_cast<std::size_t>(m)]) contract.push_back(m);
  PARPP_ASSERT(!contract.empty(), "build_from_raw: nothing to contract");

  // Choose the TTM mode: prefer the last mode, then the first (one large
  // GEMM each); an interior mode runs as one GEMM per leading index, with
  // the transposed operand packed into k-major panels (la::gemm_raw).
  int ttm_mode = contract.back();
  if (std::find(contract.begin(), contract.end(), n_ - 1) != contract.end())
    ttm_mode = n_ - 1;
  else if (std::find(contract.begin(), contract.end(), 0) != contract.end())
    ttm_mode = 0;

  auto node = std::make_shared<detail::TreeNode>();
  // Node storage is workspace-backed: buffers of invalidated nodes cycle
  // back through ws_, so repeated sweeps rebuild allocation-free.
  tensor::DenseTensor cur(ws_), tmp(ws_);
  tensor::ttm_first_into(*t_, ttm_mode,
                         (*factors_)[static_cast<std::size_t>(ttm_mode)], cur,
                         &profile());
  ++ttm_count_;
  for (int m = 0; m < n_; ++m)
    if (m != ttm_mode) node->modes.push_back(m);
  node->deps.emplace_back(ttm_mode, version(ttm_mode));

  // Remaining contractions by mTTV, largest mode index first (determinism;
  // cost is order-independent for equidimensional tensors).
  std::vector<int> rest;
  for (int m : contract)
    if (m != ttm_mode) rest.push_back(m);
  std::sort(rest.rbegin(), rest.rend());
  for (int m : rest) {
    const auto it = std::find(node->modes.begin(), node->modes.end(), m);
    PARPP_ASSERT(it != node->modes.end(), "contract mode not in node");
    const int p = static_cast<int>(it - node->modes.begin());
    tensor::mttv_into(cur, p, (*factors_)[static_cast<std::size_t>(m)], tmp,
                      &profile());
    std::swap(cur, tmp);
    ++mttv_count_;
    node->modes.erase(node->modes.begin() + p);
    node->deps.emplace_back(m, version(m));
  }
  node->data = std::move(cur);
  return node;
}

detail::NodePtr TreeEngineBase::build_from_parent(
    const detail::NodePtr& parent, const RangeKey& key) {
  auto modes_keep = range_modes(key);
  std::vector<int> contract;
  for (int m : parent->modes) {
    if (std::find(modes_keep.begin(), modes_keep.end(), m) == modes_keep.end())
      contract.push_back(m);
  }
  PARPP_ASSERT(!contract.empty(), "build_from_parent: nothing to contract");
  std::sort(contract.rbegin(), contract.rend());

  auto node = std::make_shared<detail::TreeNode>();
  node->modes = parent->modes;
  node->deps = parent->deps;
  const tensor::DenseTensor* src = &parent->data;
  tensor::DenseTensor cur(ws_), tmp(ws_);
  for (int m : contract) {
    const auto it = std::find(node->modes.begin(), node->modes.end(), m);
    PARPP_ASSERT(it != node->modes.end(), "contract mode not in parent");
    const int p = static_cast<int>(it - node->modes.begin());
    tensor::mttv_into(*src, p, (*factors_)[static_cast<std::size_t>(m)], tmp,
                      &profile());
    std::swap(cur, tmp);
    src = &cur;
    ++mttv_count_;
    node->modes.erase(node->modes.begin() + p);
    node->deps.emplace_back(m, version(m));
  }
  node->data = std::move(cur);
  return node;
}

la::Matrix TreeEngineBase::leaf_matrix(const detail::TreeNode& node) const {
  PARPP_CHECK(node.modes.size() == 1, "leaf_matrix: node is not a leaf");
  PARPP_CHECK(node.data.order() == 2, "leaf_matrix: unexpected node shape");
  la::Matrix m(node.data.extent(0), node.data.extent(1));
  std::copy(node.data.data(), node.data.data() + node.data.size(), m.data());
  return m;
}

// ---------------------------------------------------------------------------
// DtEngine

detail::NodePtr DtEngine::ensure_contiguous(int lo, int len) {
  const int n = order();
  PARPP_ASSERT(len >= 1 && len < n, "ensure_contiguous: bad range");
  const RangeKey key{lo, len};
  if (auto hit = cache_lookup(key)) return hit;

  // Find the parent on the fixed binary-split descent from [0, n).
  int plo = 0, plen = n;
  while (true) {
    const int left_len = (plen + 1) / 2;
    int clo, clen;
    if (lo >= plo && lo + len <= plo + left_len) {
      clo = plo;
      clen = left_len;
    } else {
      clo = plo + left_len;
      clen = plen - left_len;
    }
    if (clo == lo && clen == len) break;  // (plo, plen) is the parent chain
    plo = clo;
    plen = clen;
    PARPP_ASSERT(plen >= len, "descent failed");
  }

  detail::NodePtr node;
  if (plen == n) {
    node = build_from_raw(key);
  } else {
    const auto parent = ensure_contiguous(plo, plen);
    node = build_from_parent(parent, key);
  }
  cache_store(key, node);
  return node;
}

la::Matrix DtEngine::mttkrp(int mode) {
  PARPP_CHECK(mode >= 0 && mode < order(), "mttkrp: bad mode");
  if (order() == 1) {
    // Degenerate: M(0) is the tensor itself replicated over rank columns.
    la::Matrix m(factors()[0].rows(), factors()[0].cols());
    return m;
  }
  const auto leaf = ensure_contiguous(mode, 1);
  return leaf_matrix(*leaf);
}

// ---------------------------------------------------------------------------
// NaiveEngine

namespace {

// Reference (non-amortizing) engine on the fused MTTKRP path: no KRP
// materialization, no unfold copy, O(block·R) auxiliary memory, and zero
// steady-state workspace growth across sweeps via the persistent arena.
// (The returned result matrix is the one allocation the by-value interface
// requires; callers needing full reuse take tensor::mttkrp_into directly.)
class NaiveEngine final : public MttkrpEngine {
 public:
  NaiveEngine(const tensor::DenseTensor& t,
              const std::vector<la::Matrix>& factors, Profile* profile)
      : t_(&t), factors_(&factors), profile_(profile) {}

  [[nodiscard]] la::Matrix mttkrp(int mode) override {
    return tensor::mttkrp_fused(*t_, *factors_, mode, profile_, &ws_);
  }
  void notify_update(int /*mode*/) override {}
  [[nodiscard]] std::string_view name() const override { return "naive"; }

 private:
  const tensor::DenseTensor* t_;
  const std::vector<la::Matrix>* factors_;
  Profile* profile_;
  util::KernelWorkspace ws_;
};

}  // namespace

std::unique_ptr<MttkrpEngine> make_engine(EngineKind kind,
                                          const tensor::DenseTensor& t,
                                          const std::vector<la::Matrix>& factors,
                                          Profile* profile,
                                          const EngineOptions& options) {
  switch (kind) {
    case EngineKind::kNaive:
      return std::make_unique<NaiveEngine>(t, factors, profile);
    case EngineKind::kDt:
      return std::make_unique<DtEngine>(t, factors, profile, options);
    case EngineKind::kMsdt:
      return std::make_unique<MsdtEngine>(t, factors, profile, options);
    case EngineKind::kSparse:
      PARPP_CHECK(false,
                  "make_engine: the sparse engine needs CSF storage — build "
                  "a tensor::CsfTensor and use the sparse_engine.hpp overload");
  }
  PARPP_CHECK(false, "make_engine: unknown kind");
  return nullptr;
}

}  // namespace parpp::core
