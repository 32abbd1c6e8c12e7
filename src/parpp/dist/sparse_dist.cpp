#include "parpp/dist/sparse_dist.hpp"

#include <algorithm>

namespace parpp::dist {

SparseBlockDist::SparseBlockDist(const tensor::CooTensor& coo) : coo_(&coo) {
  PARPP_CHECK(coo.coalesced(),
              "SparseBlockDist: COO input must be coalesced — call "
              "CooTensor::coalesce() first");
}

SparseBlockDist::SparseBlockDist(const tensor::CsfTensor& t)
    : owned_(t.to_coo()), coo_(&owned_) {}

const std::vector<index_t>& SparseBlockDist::global_shape() const {
  return coo_->shape();
}

std::size_t SparseBlockDist::partition_passes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partition_passes_;
}

std::unique_ptr<LocalProblem> SparseBlockDist::make_local(
    const BlockDist& dist, const std::vector<int>& coords) const {
  const int n = dist.order();
  PARPP_CHECK(static_cast<int>(coords.size()) == n,
              "SparseBlockDist: coordinate order mismatch");
  PARPP_CHECK(coo_->shape() == dist.global_shape(),
              "SparseBlockDist: BlockDist shape mismatch");

  index_t flat = 0;
  for (int m = 0; m < n; ++m) {
    const int c = coords[static_cast<std::size_t>(m)];
    PARPP_CHECK(c >= 0 && c < dist.blocks(m),
                "SparseBlockDist: coordinate out of grid");
    flat = flat * dist.blocks(m) + c;
  }

  // The first rank to arrive with this geometry runs the shared bucketing
  // pass; everyone else (the common case: all P ranks of one run) finds
  // the cache hot and *moves* its bucket out — O(1) under the lock, so
  // ranks never serialize on per-bucket memory traffic — while the
  // expensive CSF build runs outside, concurrently. Each coordinate
  // fetches once per run: after the last fetch the (emptied) cache is
  // dropped rather than carried for the problem's lifetime, and an
  // out-of-contract re-fetch of an already-taken bucket just re-runs the
  // bucketing pass instead of silently returning an empty block.
  tensor::CooTensor bucket;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cached_bounds_ != dist.bounds() ||
        taken_[static_cast<std::size_t>(flat)])
      rebuild_buckets(dist);
    bucket = std::move(buckets_[static_cast<std::size_t>(flat)]);
    taken_[static_cast<std::size_t>(flat)] = 1;
    if (++fetched_ == static_cast<index_t>(buckets_.size())) {
      buckets_.clear();
      taken_.clear();
      cached_bounds_.clear();
      fetched_ = 0;
    }
  }
  return own_block(tensor::CsfTensor(bucket));
}

void SparseBlockDist::rebuild_buckets(const BlockDist& dist) const {
  const int n = dist.order();
  const index_t nnz = coo_->nnz();

  // Owner lookup tables, one per mode: O(sum extents), O(1) per entry.
  std::vector<std::vector<int>> owner(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    auto& o = owner[static_cast<std::size_t>(m)];
    o.resize(static_cast<std::size_t>(
        dist.global_shape()[static_cast<std::size_t>(m)]));
    for (int c = 0; c < dist.blocks(m); ++c) {
      const index_t lo = std::min(dist.slab_offset(m, c),
                                  static_cast<index_t>(o.size()));
      const index_t hi = dist.slab_end(m, c);
      for (index_t i = lo; i < hi; ++i) o[static_cast<std::size_t>(i)] = c;
    }
  }

  index_t nblocks = 1;
  for (int m = 0; m < n; ++m) nblocks *= dist.blocks(m);

  // Single O(nnz) bucketing pass: count, reserve, fill. The global list is
  // sorted and the per-mode offset subtraction preserves lexicographic
  // order within a block, so each bucket's coalesce() only restores the
  // invariant (no re-sort work, no duplicates).
  std::vector<index_t> dest(static_cast<std::size_t>(nnz));
  std::vector<index_t> counts(static_cast<std::size_t>(nblocks), 0);
  for (index_t e = 0; e < nnz; ++e) {
    index_t b = 0;
    for (int m = 0; m < n; ++m)
      b = b * dist.blocks(m) +
          owner[static_cast<std::size_t>(m)]
               [static_cast<std::size_t>(coo_->index(e, m))];
    dest[static_cast<std::size_t>(e)] = b;
    ++counts[static_cast<std::size_t>(b)];
  }
  buckets_.clear();
  buckets_.reserve(static_cast<std::size_t>(nblocks));
  for (index_t b = 0; b < nblocks; ++b) {
    buckets_.emplace_back(dist.local_shape());
    buckets_.back().reserve(counts[static_cast<std::size_t>(b)]);
  }
  std::vector<index_t> lidx(static_cast<std::size_t>(n));
  for (index_t e = 0; e < nnz; ++e) {
    const index_t b = dest[static_cast<std::size_t>(e)];
    index_t rem = b;
    for (int m = n - 1; m >= 0; --m) {
      const int c = static_cast<int>(rem % dist.blocks(m));
      rem /= dist.blocks(m);
      lidx[static_cast<std::size_t>(m)] =
          coo_->index(e, m) - dist.slab_offset(m, c);
    }
    buckets_[static_cast<std::size_t>(b)].push(lidx, coo_->value(e));
  }
  for (auto& b : buckets_) b.coalesce();
  cached_bounds_ = dist.bounds();
  taken_.assign(static_cast<std::size_t>(nblocks), 0);
  fetched_ = 0;
  ++partition_passes_;
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

BalancedSparseDist::BalancedSparseDist(const tensor::CooTensor& coo)
    : SparseBlockDist(coo) {
  build_histograms();
}

BalancedSparseDist::BalancedSparseDist(const tensor::CsfTensor& t)
    : SparseBlockDist(t) {
  build_histograms();
}

void BalancedSparseDist::build_histograms() {
  const tensor::CooTensor& c = coo();
  const int n = c.order();
  slice_nnz_.resize(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m)
    slice_nnz_[static_cast<std::size_t>(m)].assign(
        static_cast<std::size_t>(c.extent(m)), 0);
  for (index_t e = 0; e < c.nnz(); ++e)
    for (int m = 0; m < n; ++m)
      ++slice_nnz_[static_cast<std::size_t>(m)]
                  [static_cast<std::size_t>(c.index(e, m))];
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
