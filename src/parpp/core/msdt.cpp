#include "parpp/core/msdt.hpp"

namespace parpp::core {

MsdtEngine::MsdtEngine(const tensor::DenseTensor& t,
                       const std::vector<la::Matrix>& factors,
                       Profile* profile, const EngineOptions& options)
    : TreeEngineBase(t, factors, profile, options),
      current_c_(t.order() - 1),
      leaves_served_(0) {
  PARPP_CHECK(t.order() >= 2, "MSDT requires an order >= 2 tensor");
}

void MsdtEngine::advance_subtree() {
  current_c_ = (current_c_ - 1 + order()) % order();
  leaves_served_ = 0;
}

la::Matrix MsdtEngine::mttkrp(int mode) {
  PARPP_CHECK(mode >= 0 && mode < order(), "mttkrp: bad mode");
  // The active subtree cannot produce its own excluded mode, and after N-1
  // leaves it is exhausted; under the standard ALS order both rotations
  // coincide, but out-of-order callers may need two advances in a row.
  if (leaves_served_ >= order() - 1) advance_subtree();
  if (mode == current_c_) advance_subtree();
  PARPP_ASSERT(mode != current_c_, "subtree rotation failed");
  ++leaves_served_;
  const auto leaf = ensure_cyclic(mode, 1);
  return leaf_matrix(*leaf);
}

detail::NodePtr MsdtEngine::ensure_cyclic(int start, int len) {
  const int n = order();
  start = ((start % n) + n) % n;
  const RangeKey key{start, len};
  if (auto hit = cache_lookup(key)) return hit;

  const int root_start = (current_c_ + 1) % n;
  detail::NodePtr node;
  if (start == root_start && len == n - 1) {
    node = build_from_raw(key);
  } else {
    // Parent on the binary-split descent from the subtree root; splits take
    // the cyclically-first ceil(len/2) modes left, matching the order in
    // which ALS consumes the leaves.
    int plo = root_start, plen = n - 1;
    while (true) {
      const int left_len = (plen + 1) / 2;
      const int d = ((start - plo) % n + n) % n;
      PARPP_ASSERT(d + len <= plen, "target outside subtree");
      int clo, clen;
      if (d + len <= left_len) {
        clo = plo;
        clen = left_len;
      } else {
        PARPP_ASSERT(d >= left_len, "target straddles the split");
        clo = (plo + left_len) % n;
        clen = plen - left_len;
      }
      if (clo == start && clen == len) break;
      plo = clo;
      plen = clen;
    }
    const auto parent = ensure_cyclic(plo, plen);
    node = build_from_parent(parent, key);
  }
  cache_store(key, node);
  return node;
}

}  // namespace parpp::core
