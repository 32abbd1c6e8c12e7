#include "parpp/tensor/csf_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace parpp::tensor {

namespace {

void build_tiles(CsfTensor::Tree& tree, int n);

/// Builds one fiber tree in three linear passes: order the entries, find
/// where each opens new nodes (sizing every level), then fill exact-size
/// arrays. A coalesced entry set has exactly one tree per mode order, so
/// the result does not depend on how the entries were ordered. The count
/// and fill passes run by blocks of kBuildBlock entries: a prefix over the
/// blocks' level counts hands each block the node slots the serial fill
/// would give its entries, so the arrays do not depend on the team either.
CsfTensor::Tree build_tree(const CooTensor& coo, std::vector<int> mode_order) {
  const auto n = static_cast<std::size_t>(coo.order());
  const index_t nnz = coo.nnz();

  CsfTensor::Tree tree;
  tree.mode_order = std::move(mode_order);
  const std::vector<int>& mo = tree.mode_order;

  // 1. Order: lexicographic in mode_order. The coalesced COO is already
  // lexicographic in modes 0..n-1, so the levels from `sorted_from` on —
  // the longest ascending tail of mode_order — are in place, and one
  // stable counting pass per earlier level (right to left) orders the
  // rest. Tree 0 needs no pass, every other all-modes tree exactly one.
  std::size_t sorted_from = n - 1;
  while (sorted_from > 0 && mo[sorted_from - 1] < mo[sorted_from])
    --sorted_from;
  std::vector<index_t> perm, prev;  // perm empty: COO order
  for (std::size_t l = sorted_from; l-- > 0;) {
    std::swap(perm, prev);
    perm.resize(static_cast<std::size_t>(nnz));
    coo.sort_pass(mo[l], prev.empty() ? nullptr : prev.data(), perm.data());
  }
  prev = {};
  const auto entry = [&](index_t p) {
    return perm.empty() ? p : perm[static_cast<std::size_t>(p)];
  };

  // 2. Count: an entry opens fresh nodes from the first level whose
  // coordinate differs from the previous entry's down to the leaf, so
  // level l holds one node per entry opening at or above it. Row b of
  // `next` first counts block b's nodes per level, then becomes the
  // block's first slot on each level.
  constexpr index_t kBlock = CsfTensor::kBuildBlock;
  const index_t blocks = (nnz + kBlock - 1) / kBlock;
  const bool team = nnz >= CsfTensor::kParallelBuildMin;
  std::vector<std::uint8_t> opens(static_cast<std::size_t>(nnz));
  std::vector<index_t> next(static_cast<std::size_t>(blocks) * n, 0);
#pragma omp parallel for schedule(static) if (team)
  for (index_t b = 0; b < blocks; ++b) {
    index_t* count = next.data() + static_cast<std::size_t>(b) * n;
    for (index_t p = b * kBlock; p < std::min(nnz, (b + 1) * kBlock); ++p) {
      std::size_t l = 0;
      if (p > 0) {
        const index_t e = entry(p), before = entry(p - 1);
        while (l + 1 < n && coo.index(e, mo[l]) == coo.index(before, mo[l]))
          ++l;
      }
      opens[static_cast<std::size_t>(p)] = static_cast<std::uint8_t>(l);
      ++count[l];
    }
    for (std::size_t l = 1; l < n; ++l) count[l] += count[l - 1];
  }
  std::vector<index_t> nodes(n, 0);
  for (index_t b = 0; b < blocks; ++b)
    for (std::size_t l = 0; l < n; ++l)
      nodes[l] += std::exchange(next[static_cast<std::size_t>(b) * n + l],
                                nodes[l]);

  // 3. Fill: a new node's children start where level l+1 currently ends.
  tree.fids.resize(n);
  tree.fptr.resize(n - 1);
  for (std::size_t l = 0; l < n; ++l) {
    tree.fids[l].resize(static_cast<std::size_t>(nodes[l]));
    if (l + 1 < n) tree.fptr[l].resize(static_cast<std::size_t>(nodes[l]) + 1);
  }
  tree.vals.resize(static_cast<std::size_t>(nnz));
#pragma omp parallel for schedule(static) if (team)
  for (index_t b = 0; b < blocks; ++b) {
    index_t* filled = next.data() + static_cast<std::size_t>(b) * n;
    for (index_t p = b * kBlock; p < std::min(nnz, (b + 1) * kBlock); ++p) {
      const index_t e = entry(p);
      for (std::size_t l = opens[static_cast<std::size_t>(p)]; l < n; ++l) {
        const auto j = static_cast<std::size_t>(filled[l]++);
        if (l + 1 < n) tree.fptr[l][j] = filled[l + 1];
        tree.fids[l][j] = coo.index(e, mo[l]);
      }
      tree.vals[static_cast<std::size_t>(p)] = coo.value(e);
    }
  }
  for (std::size_t l = 0; l + 1 < n; ++l) tree.fptr[l].back() = nodes[l + 1];
  for (std::size_t l = 1; l + 1 < n; ++l) tree.internal_nodes += nodes[l];
  build_tiles(tree, static_cast<int>(n));
  return tree;
}

/// Cuts the part of tree `g` inside the box [lo, hi) (re-indexed to start
/// at `lo`) in two walks, as build_tree does: count the kept nodes per
/// level, then fill arrays allocated at their exact sizes. A node's children
/// are sorted by coordinate, so those inside the box form one contiguous
/// range, found by two binary searches; a non-leaf node is kept only if its
/// subtree keeps a leaf. Restricting to a box keeps the lexicographic order
/// of the mode order, so the result is the tree build_tree would make from
/// the box's entries.
CsfTensor::Tree cut_tree(const CsfTensor::Tree& g,
                         const std::vector<index_t>& lo,
                         const std::vector<index_t>& hi) {
  const std::size_t n = g.mode_order.size();
  CsfTensor::Tree tree;
  tree.mode_order = g.mode_order;
  tree.fids.resize(n);
  tree.fptr.resize(n - 1);

  // Visits the global nodes [begin, end) of level l, appending each kept one
  // at nodes[l] (and, when `fill`, writing it there). Returns whether any
  // node was kept.
  std::vector<index_t> nodes(n, 0);
  const auto walk = [&](auto&& self, bool fill, std::size_t l, index_t begin,
                        index_t end) -> bool {
    const auto mode = static_cast<std::size_t>(g.mode_order[l]);
    const std::vector<index_t>& f = g.fids[l];
    const auto first =
        std::lower_bound(f.begin() + begin, f.begin() + end, lo[mode]);
    const auto last = std::lower_bound(first, f.begin() + end, hi[mode]);
    const auto k0 = static_cast<std::size_t>(first - f.begin());
    const auto k1 = static_cast<std::size_t>(last - f.begin());
    const index_t before = nodes[l];
    if (l + 1 == n) {  // leaves: the whole range is kept
      if (!fill) {
        nodes[l] += static_cast<index_t>(k1 - k0);
        return k1 > k0;
      }
      for (std::size_t k = k0; k < k1; ++k) {
        const auto j = static_cast<std::size_t>(nodes[l]++);
        tree.fids[l][j] = f[k] - lo[mode];
        tree.vals[j] = g.vals[k];
      }
      return k1 > k0;
    }
    for (std::size_t k = k0; k < k1; ++k) {
      const index_t children = nodes[l + 1];
      if (!self(self, fill, l + 1, g.fptr[l][k], g.fptr[l][k + 1])) continue;
      const auto j = static_cast<std::size_t>(nodes[l]++);
      if (!fill) continue;
      tree.fids[l][j] = f[k] - lo[mode];
      tree.fptr[l][j] = children;
    }
    return nodes[l] > before;
  };

  // An empty box (hi <= lo on some mode) finds empty child ranges there.
  walk(walk, /*fill=*/false, 0, 0, g.root_count());
  for (std::size_t l = 0; l < n; ++l) {
    tree.fids[l].resize(static_cast<std::size_t>(nodes[l]));
    if (l + 1 < n) tree.fptr[l].resize(static_cast<std::size_t>(nodes[l]) + 1);
  }
  tree.vals.resize(static_cast<std::size_t>(nodes[n - 1]));
  for (std::size_t l = 0; l + 1 < n; ++l) tree.fptr[l].back() = nodes[l + 1];
  for (std::size_t l = 1; l + 1 < n; ++l) tree.internal_nodes += nodes[l];
  std::fill(nodes.begin(), nodes.end(), 0);
  walk(walk, /*fill=*/true, 0, 0, g.root_count());
  build_tiles(tree, static_cast<int>(n));
  return tree;
}

/// Mode order for root tree `m` of the kAllModes layout: root first, the
/// rest ascending.
std::vector<int> all_modes_order(int n, int m) {
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(m);
  for (int k = 0; k < n; ++k)
    if (k != m) order.push_back(k);
  return order;
}

/// Mode order for tree `m` of the kHalf layout: rooted at m, leaf n-1-m,
/// remaining modes ascending in between — each tree serves its root mode
/// (upward walk) and its leaf mode (downward scatter walk). The middle
/// tree of an odd order would have leaf == root; it falls back to the
/// plain ascending order and serves only its root.
std::vector<int> half_order(int n, int m) {
  const int leaf = n - 1 - m;
  if (leaf == m) return all_modes_order(n, m);
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  order.push_back(m);
  for (int k = 0; k < n; ++k)
    if (k != m && k != leaf) order.push_back(k);
  order.push_back(leaf);
  return order;
}

/// Splits the level-1 node array into tiles of ~kTileLeafTarget leaf
/// entries and records which root fibers each tile intersects. Level-1
/// granularity (rather than whole root fibers) is what lets the tiled
/// MTTKRP walk scale on short root modes.
void build_tiles(CsfTensor::Tree& tree, int n) {
  const auto n1 = static_cast<index_t>(tree.fids[1].size());
  // Leaf offset of level-1 node k: compose the child pointers down to the
  // leaf level (identity for order 2, where level 1 *is* the leaf level).
  const auto leaf_start = [&](index_t k) {
    index_t cur = k;
    for (int l = 1; l <= n - 2; ++l)
      cur = tree.fptr[static_cast<std::size_t>(l)][static_cast<std::size_t>(cur)];
    return cur;
  };

  tree.tile_ptr.push_back(0);
  index_t acc = 0;
  index_t prev = leaf_start(0);
  for (index_t k = 0; k < n1; ++k) {
    const index_t next = leaf_start(k + 1);
    acc += next - prev;
    prev = next;
    if (acc >= CsfTensor::kTileLeafTarget) {
      tree.tile_ptr.push_back(k + 1);
      acc = 0;
    }
  }
  if (tree.tile_ptr.back() != n1) tree.tile_ptr.push_back(n1);

  const auto& root_ptr = tree.fptr[0];
  const index_t roots = tree.root_count();
  index_t r = 0;
  for (index_t t = 0; t + 1 < static_cast<index_t>(tree.tile_ptr.size()); ++t) {
    const index_t k0 = tree.tile_ptr[static_cast<std::size_t>(t)];
    const index_t k1 = tree.tile_ptr[static_cast<std::size_t>(t) + 1];
    while (root_ptr[static_cast<std::size_t>(r) + 1] <= k0) ++r;
    tree.tile_root.push_back(r);
    index_t re = r;
    while (re < roots && root_ptr[static_cast<std::size_t>(re)] < k1) ++re;
    tree.tile_root_end.push_back(re);
  }
}

}  // namespace

CsfTensor::CsfTensor(const CooTensor& coo) : CsfTensor(coo, CsfOptions{}) {}

CsfTensor::CsfTensor(const CooTensor& coo, const CsfOptions& options)
    : shape_(coo.shape()),
      nnz_(coo.nnz()),
      dense_size_(coo.dense_size()),
      layout_(options.layout) {
  PARPP_CHECK(order() >= 2, "CsfTensor: tensor order must be >= 2");
  // Construction keeps each entry's first new level in one byte.
  PARPP_CHECK(order() <= 255, "CsfTensor: tensor order must be <= 255, got ",
              order());
  PARPP_CHECK(coo.coalesced(),
              "CsfTensor: COO input must be coalesced (sorted, no duplicate "
              "coordinates) — call CooTensor::coalesce() first");
  squared_norm_ = coo.squared_norm();
  build(coo);
}

CsfTensor::CsfTensor(const CsfTensor& global, const std::vector<index_t>& lo,
                     const std::vector<index_t>& hi, std::vector<index_t> shape)
    : shape_(std::move(shape)), dense_size_(1.0), layout_(global.layout_) {
  const auto n = static_cast<std::size_t>(global.order());
  PARPP_CHECK(lo.size() == n && hi.size() == n && shape_.size() == n,
              "CsfTensor: the box and the block shape need one entry per "
              "mode");
  for (std::size_t m = 0; m < n; ++m) {
    PARPP_CHECK(lo[m] >= 0 && hi[m] - lo[m] <= shape_[m],
                "CsfTensor: mode ", m, " box [", lo[m], ", ", hi[m],
                ") does not fit the block extent ", shape_[m]);
    dense_size_ *= static_cast<double>(shape_[m]);
  }
  trees_.reserve(global.trees_.size());
  for (const Tree& g : global.trees_) trees_.push_back(cut_tree(g, lo, hi));
  nnz_ = static_cast<index_t>(trees_.front().vals.size());
  // Tree 0's mode order is the identity in both layouts, so its leaves are
  // the coalesced COO order: this is CooTensor::squared_norm's sum, bit for
  // bit.
  for (double v : trees_.front().vals) squared_norm_ += v * v;
}

void CsfTensor::build(const CooTensor& coo) {
  const int n = order();
  if (layout_ == CsfLayout::kAllModes) {
    trees_.reserve(static_cast<std::size_t>(n));
    for (int m = 0; m < n; ++m)
      trees_.push_back(build_tree(coo, all_modes_order(n, m)));
  } else {
    const int half = (n + 1) / 2;
    trees_.reserve(static_cast<std::size_t>(half));
    for (int m = 0; m < half; ++m)
      trees_.push_back(build_tree(coo, half_order(n, m)));
  }
}

CsfTensor::Walk CsfTensor::walk_for(int mode) const {
  PARPP_CHECK(mode >= 0 && mode < order(), "walk_for: bad mode ", mode);
  if (mode < tree_count())
    return {&trees_[static_cast<std::size_t>(mode)], mode, /*leaf=*/false};
  // kHalf upper-half mode: served as the leaf level of tree n-1-mode.
  const int ti = order() - 1 - mode;
  const Walk w{&trees_[static_cast<std::size_t>(ti)], ti, /*leaf=*/true};
  PARPP_ASSERT(w.tree->mode_order.back() == mode,
               "walk_for: tree ", ti, " does not end in mode ", mode);
  return w;
}

index_t CsfTensor::pattern_words() const {
  index_t words = 0;
  for (const Tree& t : trees_) {
    for (const auto& v : t.fptr) words += static_cast<index_t>(v.size());
    for (const auto& v : t.fids) words += static_cast<index_t>(v.size());
  }
  return words;
}

double CsfTensor::frobenius_norm() const { return std::sqrt(squared_norm_); }

double CsfTensor::density() const {
  return dense_size_ > 0.0 ? static_cast<double>(nnz_) / dense_size_ : 0.0;
}

}  // namespace parpp::tensor
