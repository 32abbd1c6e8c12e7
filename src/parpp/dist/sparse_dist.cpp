#include "parpp/dist/sparse_dist.hpp"

#include <algorithm>

namespace parpp::dist {

tensor::CsfTensor SparseBlockDist::block(const BlockDist& dist,
                                         const std::vector<int>& coords) const {
  const int n = dist.order();
  PARPP_CHECK(static_cast<int>(coords.size()) == n,
              "SparseBlockDist: coordinate order mismatch");
  PARPP_CHECK(t_->shape() == dist.global_shape(),
              "SparseBlockDist: BlockDist shape mismatch");
  std::vector<index_t> lo(static_cast<std::size_t>(n));
  std::vector<index_t> hi(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    const int c = coords[static_cast<std::size_t>(m)];
    PARPP_CHECK(c >= 0 && c < dist.blocks(m),
                "SparseBlockDist: coordinate out of grid");
    // Ownership is the slab, never the padded extent; an all-padding slab
    // (offset past the extent) gives an empty box.
    lo[static_cast<std::size_t>(m)] = dist.slab_offset(m, c);
    hi[static_cast<std::size_t>(m)] = dist.slab_end(m, c);
  }
  return tensor::CsfTensor(*t_, lo, hi, dist.local_shape());
}

std::unique_ptr<LocalProblem> SparseBlockDist::make_local(
    const BlockDist& dist, const std::vector<int>& coords) const {
  return own_block(block(dist, coords));
}

std::vector<index_t> chains_on_chains(const std::vector<index_t>& loads,
                                      int parts) {
  PARPP_CHECK(parts >= 1, "chains_on_chains: need at least one part");
  const auto s = static_cast<index_t>(loads.size());
  std::vector<index_t> prefix(static_cast<std::size_t>(s) + 1, 0);
  index_t max_load = 0;
  for (index_t i = 0; i < s; ++i) {
    PARPP_CHECK(loads[static_cast<std::size_t>(i)] >= 0,
                "chains_on_chains: negative load");
    prefix[static_cast<std::size_t>(i) + 1] =
        prefix[static_cast<std::size_t>(i)] + loads[static_cast<std::size_t>(i)];
    max_load = std::max(max_load, loads[static_cast<std::size_t>(i)]);
  }
  const index_t total = prefix[static_cast<std::size_t>(s)];

  // Greedy max-fill from `pos` under `cap`; returns the end of the chunk.
  const auto chunk_end = [&](index_t pos, index_t cap) {
    const auto it = std::upper_bound(prefix.begin() + pos + 1, prefix.end(),
                                     prefix[static_cast<std::size_t>(pos)] + cap);
    return static_cast<index_t>(it - prefix.begin()) - 1;
  };
  const auto feasible = [&](index_t cap) {
    index_t pos = 0;
    for (int used = 0; pos < s; ++used) {
      if (used == parts) return false;
      pos = chunk_end(pos, cap);
    }
    return true;
  };

  // Parametric search for the minimal feasible bottleneck. Any cap below
  // max_load or the mean is infeasible, so start the bracket there.
  index_t lo = std::max(max_load, (total + parts - 1) / parts);
  index_t hi = total;
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    if (feasible(mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }

  std::vector<index_t> bounds;
  bounds.reserve(static_cast<std::size_t>(parts) + 1);
  bounds.push_back(0);
  index_t pos = 0;
  for (int c = 0; c < parts; ++c) {
    pos = (c == parts - 1) ? s : chunk_end(pos, lo);
    bounds.push_back(pos);
  }
  return bounds;
}

BalancedSparseDist::BalancedSparseDist(const tensor::CsfTensor& t)
    : SparseBlockDist(t) {
  const int n = t.order();
  slice_nnz_.resize(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    auto& hist = slice_nnz_[static_cast<std::size_t>(m)];
    hist.assign(static_cast<std::size_t>(t.extent(m)), 0);
    const tensor::CsfTensor::Walk w = t.walk_for(m);
    const tensor::CsfTensor::Tree& tree = *w.tree;
    if (w.leaf) {  // a kHalf leaf mode: count its leaf coordinates
      for (index_t i : tree.fids.back()) ++hist[static_cast<std::size_t>(i)];
      continue;
    }
    // The leaves under each root, found by composing fptr down the levels.
    const std::vector<index_t>& roots = tree.fids.front();
    for (std::size_t j = 0; j < roots.size(); ++j) {
      auto begin = static_cast<index_t>(j);
      index_t end = begin + 1;
      for (const auto& ptr : tree.fptr) {
        begin = ptr[static_cast<std::size_t>(begin)];
        end = ptr[static_cast<std::size_t>(end)];
      }
      hist[static_cast<std::size_t>(roots[j])] = end - begin;
    }
  }
}

BlockDist BalancedSparseDist::make_block_dist(
    const mpsim::ProcessorGrid& grid) const {
  PARPP_CHECK(grid.order() == static_cast<int>(slice_nnz_.size()),
              "BalancedSparseDist: grid order mismatch");
  std::vector<std::vector<index_t>> bounds;
  bounds.reserve(slice_nnz_.size());
  for (int m = 0; m < grid.order(); ++m)
    bounds.push_back(
        chains_on_chains(slice_nnz_[static_cast<std::size_t>(m)], grid.dim(m)));
  return BlockDist(grid, global_shape(), std::move(bounds));
}

std::unique_ptr<DistProblem> make_sparse_problem(const tensor::CsfTensor& t,
                                                 PartitionKind partition) {
  switch (partition) {
    case PartitionKind::kUniformBlocks:
      return std::make_unique<SparseBlockDist>(t);
    case PartitionKind::kBalancedNnz:
      return std::make_unique<BalancedSparseDist>(t);
  }
  PARPP_CHECK(false, "make_sparse_problem: unknown partition kind");
  return nullptr;  // unreachable
}

}  // namespace parpp::dist
