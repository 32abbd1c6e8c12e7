#include "parpp/tensor/coo_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace parpp::tensor {

CooTensor::CooTensor(std::vector<index_t> shape) : shape_(std::move(shape)) {
  PARPP_CHECK(!shape_.empty(), "CooTensor: empty shape");
  for (index_t e : shape_) PARPP_CHECK(e >= 0, "CooTensor: negative extent");
}

double CooTensor::dense_size() const {
  double prod = 1.0;
  for (index_t e : shape_) prod *= static_cast<double>(e);
  return prod;
}

double CooTensor::density() const {
  const double denom = dense_size();
  return denom > 0.0 ? static_cast<double>(nnz()) / denom : 0.0;
}

void CooTensor::reserve(index_t nnz) {
  idx_.reserve(static_cast<std::size_t>(nnz * order()));
  vals_.reserve(static_cast<std::size_t>(nnz));
}

void CooTensor::push(std::span<const index_t> idx, double value) {
  PARPP_CHECK(static_cast<int>(idx.size()) == order(),
              "CooTensor::push: expected ", order(), " coordinates, got ",
              idx.size());
  for (int m = 0; m < order(); ++m) {
    PARPP_CHECK(idx[static_cast<std::size_t>(m)] >= 0 &&
                    idx[static_cast<std::size_t>(m)] < extent(m),
                "CooTensor::push: coordinate ", idx[static_cast<std::size_t>(m)],
                " out of range for mode ", m);
  }
  idx_.insert(idx_.end(), idx.begin(), idx.end());
  vals_.push_back(value);
  coalesced_ = false;
}

void CooTensor::coalesce() {
  if (coalesced_) return;
  const int n = order();
  const index_t count = nnz();
  // Fast path: entries pushed in strictly increasing lexicographic order
  // with no zeros (e.g. a sorted .tns file) only need the invariant flag
  // restored — one linear scan instead of a full sort + rebuild.
  {
    bool sorted_unique_nonzero = true;
    for (index_t e = 0; e < count && sorted_unique_nonzero; ++e) {
      if (vals_[static_cast<std::size_t>(e)] == 0.0) {
        sorted_unique_nonzero = false;
        break;
      }
      if (e == 0) continue;
      const index_t* prev = idx_.data() + (e - 1) * n;
      const index_t* cur = idx_.data() + e * n;
      if (!std::lexicographical_compare(prev, prev + n, cur, cur + n))
        sorted_unique_nonzero = false;
    }
    if (sorted_unique_nonzero) {
      coalesced_ = true;
      return;
    }
  }
  // Least significant mode first: each stable pass keeps the order the
  // later modes set, so the result sorts lexicographically with duplicates
  // in push order.
  std::vector<index_t> perm(static_cast<std::size_t>(count));
  {
    std::vector<index_t> prev(static_cast<std::size_t>(count));
    for (int m = n; m-- > 0;) {
      std::swap(perm, prev);
      sort_pass(m, m == n - 1 ? nullptr : prev.data(), perm.data());
    }
  }

  std::vector<index_t> new_idx;
  std::vector<double> new_vals;
  new_idx.reserve(idx_.size());
  new_vals.reserve(vals_.size());
  auto same = [&](index_t a, const index_t* tuple) {
    const index_t* pa = idx_.data() + a * n;
    return std::equal(pa, pa + n, tuple);
  };
  for (index_t p = 0; p < count; ++p) {
    const index_t e = perm[static_cast<std::size_t>(p)];
    const index_t* tuple = idx_.data() + e * n;
    double v = vals_[static_cast<std::size_t>(e)];
    while (p + 1 < count && same(perm[static_cast<std::size_t>(p + 1)], tuple)) {
      ++p;
      v += vals_[static_cast<std::size_t>(perm[static_cast<std::size_t>(p)])];
    }
    if (v == 0.0) continue;  // drop entries that cancel (or explicit zeros)
    new_idx.insert(new_idx.end(), tuple, tuple + n);
    new_vals.push_back(v);
  }
  idx_ = std::move(new_idx);
  vals_ = std::move(new_vals);
  coalesced_ = true;
}

void CooTensor::sort_pass(int mode, const index_t* src, index_t* dst) const {
  PARPP_CHECK(mode >= 0 && mode < order(), "sort_pass: bad mode ", mode);
  const index_t count = nnz();
  if (count == 0) return;
  const int n = order();
  const index_t keys = extent(mode);
  // Blocks of at least kMinBlock entries, and few enough that the table,
  // blocks * keys words, stays within max(nnz, keys).
  constexpr index_t kMinBlock = index_t{1} << 14;
  const index_t blocks = std::max<index_t>(
      1, std::min((count + kMinBlock - 1) / kMinBlock, count / keys));
  const index_t block = (count + blocks - 1) / blocks;
  std::vector<index_t> offset(static_cast<std::size_t>(blocks * keys), 0);
  const index_t* coords = idx_.data() + mode;
  const auto entry = [src](index_t p) { return src ? src[p] : p; };
  const bool team = count >= kParallelSortMin;

#pragma omp parallel for schedule(static) if (team)
  for (index_t b = 0; b < blocks; ++b) {
    index_t* row = offset.data() + b * keys;
    for (index_t p = b * block; p < std::min(count, (b + 1) * block); ++p)
      ++row[coords[entry(p) * n]];
  }
  index_t start = 0;
  for (index_t k = 0; k < keys; ++k)
    for (index_t b = 0; b < blocks; ++b)
      start += std::exchange(offset[static_cast<std::size_t>(b * keys + k)],
                             start);
#pragma omp parallel for schedule(static) if (team)
  for (index_t b = 0; b < blocks; ++b) {
    index_t* row = offset.data() + b * keys;
    for (index_t p = b * block; p < std::min(count, (b + 1) * block); ++p) {
      const index_t e = entry(p);
      dst[row[coords[e * n]]++] = e;
    }
  }
}

double CooTensor::squared_norm() const {
  PARPP_CHECK(coalesced_,
              "CooTensor::squared_norm: coalesce() first (duplicate "
              "coordinates would be double-counted)");
  double sq = 0.0;
  for (double v : vals_) sq += v * v;
  return sq;
}

double CooTensor::frobenius_norm() const { return std::sqrt(squared_norm()); }

DenseTensor CooTensor::densify() const {
  DenseTensor t(shape_);
  const int n = order();
  std::vector<index_t> tuple(static_cast<std::size_t>(n));
  for (index_t e = 0; e < nnz(); ++e) {
    for (int m = 0; m < n; ++m)
      tuple[static_cast<std::size_t>(m)] = index(e, m);
    t.at(tuple) += value(e);
  }
  return t;
}

CooTensor CooTensor::from_dense(const DenseTensor& t, double threshold) {
  CooTensor coo(t.shape());
  std::vector<index_t> tuple(static_cast<std::size_t>(t.order()), 0);
  if (t.size() == 0) return coo;
  do {
    const double v = t.at(tuple);
    if (std::abs(v) > threshold) coo.push(tuple, v);
  } while (next_index(t.shape(), tuple));
  // Row-major traversal pushes coordinates in lexicographic order with no
  // duplicates, so the result is coalesced by construction.
  coo.coalesced_ = true;
  return coo;
}

}  // namespace parpp::tensor
