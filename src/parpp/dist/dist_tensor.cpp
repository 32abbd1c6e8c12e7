#include "parpp/dist/dist_tensor.hpp"

#include <algorithm>
#include <span>

namespace parpp::dist {

namespace {

index_t round_up(index_t v, index_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

}  // namespace

BlockDist::BlockDist(const mpsim::ProcessorGrid& grid,
                     std::vector<index_t> global_shape)
    : global_shape_(std::move(global_shape)) {
  PARPP_CHECK(static_cast<int>(global_shape_.size()) == grid.order(),
              "BlockDist: tensor order ", global_shape_.size(),
              " != grid order ", grid.order());
  bounds_.resize(global_shape_.size());
  for (int m = 0; m < order(); ++m) {
    const index_t s = global_shape_[static_cast<std::size_t>(m)];
    PARPP_CHECK(s >= 0, "BlockDist: negative extent");
    const index_t dim = grid.dim(m);
    // Uniform boundaries at multiples of the padded per-rank extent; the
    // padded extent is fixed first (ceil(s / dim), slice-rounded), so the
    // trailing boundary may point past the true extent (all-padding slabs).
    const index_t base = (s + dim - 1) / dim;
    const index_t padded = round_up(std::max<index_t>(base, 1),
                                    grid.slice_size(m));
    auto& b = bounds_[static_cast<std::size_t>(m)];
    b.resize(static_cast<std::size_t>(dim) + 1);
    for (index_t c = 0; c <= dim; ++c)
      b[static_cast<std::size_t>(c)] = c * padded;
  }
  finalize(grid);
}

BlockDist::BlockDist(const mpsim::ProcessorGrid& grid,
                     std::vector<index_t> global_shape,
                     std::vector<std::vector<index_t>> bounds)
    : global_shape_(std::move(global_shape)), bounds_(std::move(bounds)) {
  PARPP_CHECK(static_cast<int>(global_shape_.size()) == grid.order(),
              "BlockDist: tensor order ", global_shape_.size(),
              " != grid order ", grid.order());
  PARPP_CHECK(bounds_.size() == global_shape_.size(),
              "BlockDist: need one boundary array per mode");
  for (int m = 0; m < order(); ++m) {
    const auto& b = bounds_[static_cast<std::size_t>(m)];
    const index_t s = global_shape_[static_cast<std::size_t>(m)];
    PARPP_CHECK(static_cast<int>(b.size()) == grid.dim(m) + 1,
                "BlockDist: mode ", m, " boundary count ", b.size(),
                " != grid dim + 1");
    PARPP_CHECK(b.front() == 0, "BlockDist: boundaries must start at 0");
    PARPP_CHECK(b.back() >= s,
                "BlockDist: boundaries must cover the global extent");
    for (std::size_t c = 1; c < b.size(); ++c)
      PARPP_CHECK(b[c] >= b[c - 1],
                  "BlockDist: boundaries must be non-decreasing");
  }
  finalize(grid);
}

void BlockDist::finalize(const mpsim::ProcessorGrid& grid) {
  local_shape_.resize(global_shape_.size());
  rows_q_.resize(global_shape_.size());
  for (int m = 0; m < order(); ++m) {
    const auto& b = bounds_[static_cast<std::size_t>(m)];
    // Common padded extent: the widest owned slab, rounded up so the slice
    // group can split it into equal Q-row chunks.
    index_t widest = 1;
    for (std::size_t c = 0; c + 1 < b.size(); ++c) {
      const index_t end = std::min(b[c + 1],
                                   global_shape_[static_cast<std::size_t>(m)]);
      widest = std::max(widest, end - std::min(b[c], end));
    }
    const index_t padded = round_up(widest, grid.slice_size(m));
    local_shape_[static_cast<std::size_t>(m)] = padded;
    rows_q_[static_cast<std::size_t>(m)] = padded / grid.slice_size(m);
  }
}

tensor::DenseTensor extract_local_block(const tensor::DenseTensor& global,
                                        const BlockDist& dist,
                                        const std::vector<int>& coords) {
  const int n = dist.order();
  PARPP_CHECK(static_cast<int>(coords.size()) == n,
              "extract_local_block: coordinate order mismatch");
  PARPP_CHECK(global.shape() == dist.global_shape(),
              "extract_local_block: tensor shape differs from the "
              "distribution's");
  // Zero-filled, so padding needs no writes.
  tensor::DenseTensor local(dist.local_shape());
  if (local.size() == 0) return local;

  // Owned rows of each mode: [slab_offset, slab_end), clipped to the padded
  // extent. Rows past slab_end are padding, even when the padded slab
  // overlaps the next coordinate's rows (non-uniform boundaries).
  std::vector<index_t> own(static_cast<std::size_t>(n));
  index_t src_off = 0;
  for (int m = 0; m < n; ++m) {
    const auto um = static_cast<std::size_t>(m);
    const int c = coords[um];
    const index_t lo = dist.slab_offset(m, c);
    own[um] = std::clamp<index_t>(dist.slab_end(m, c) - lo, 0,
                                  dist.local_extent(m));
    if (own[um] == 0) return local;  // an all-padding slab
    src_off += lo * global.strides()[um];
  }

  // Copy one contiguous run of owned last-mode entries per owned index of
  // the leading modes.
  const std::span<const index_t> leading(own.data(), own.size() - 1);
  std::vector<index_t> idx(own.size(), 0);
  do {
    index_t from = src_off, to = 0;
    for (std::size_t m = 0; m < leading.size(); ++m) {
      from += idx[m] * global.strides()[m];
      to += idx[m] * local.strides()[m];
    }
    std::copy_n(global.data() + from, own.back(), local.data() + to);
  } while (tensor::next_index(leading, idx));
  return local;
}

}  // namespace parpp::dist
