#include "parpp/tensor/dense_tensor.hpp"

#include <algorithm>
#include <cmath>

namespace parpp::tensor {

std::vector<index_t> row_major_strides(const std::vector<index_t>& shape) {
  std::vector<index_t> strides(shape.size(), 1);
  for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i) {
    strides[static_cast<std::size_t>(i)] =
        strides[static_cast<std::size_t>(i + 1)] *
        shape[static_cast<std::size_t>(i + 1)];
  }
  return strides;
}

bool next_index(std::span<const index_t> shape, std::span<index_t> idx) {
  for (int m = static_cast<int>(shape.size()) - 1; m >= 0; --m) {
    auto um = static_cast<std::size_t>(m);
    if (++idx[um] < shape[um]) return true;
    idx[um] = 0;
  }
  return false;
}

void DenseTensor::set_shape(std::vector<index_t> shape) {
  shape_ = std::move(shape);
  strides_ = row_major_strides(shape_);
  size_ = 1;
  for (index_t s : shape_) {
    PARPP_CHECK(s >= 0, "tensor extent must be non-negative");
    size_ *= s;
  }
}

DenseTensor::DenseTensor(std::vector<index_t> shape) {
  set_shape(std::move(shape));
  owned_.resize(static_cast<std::size_t>(size_));  // allocates, writes nothing
  data_ptr_ = owned_.data();
  constexpr index_t kBlock = index_t{1} << 15;
  const index_t blocks = (size_ + kBlock - 1) / kBlock;
#pragma omp parallel for schedule(static) if (size_ >= kParallelZeroMin)
  for (index_t b = 0; b < blocks; ++b) {
    std::fill(data_ptr_ + b * kBlock,
              data_ptr_ + std::min(size_, (b + 1) * kBlock), 0.0);
  }
}

DenseTensor::DenseTensor(std::vector<index_t> shape, util::KernelWorkspace& ws)
    : ws_(ws) {
  set_shape(std::move(shape));
  lease_ = ws_->lease(size_);
  data_ptr_ = lease_.data();
}

DenseTensor::DenseTensor(const DenseTensor& other) { *this = other; }

DenseTensor& DenseTensor::operator=(const DenseTensor& other) {
  if (this == &other) return *this;
  // Copies always land in owned storage: shared tree nodes are snapshotted
  // by value (e.g. the PP donor path), and tying the copy to the source's
  // workspace would couple unrelated lifetimes.
  shape_ = other.shape_;
  strides_ = other.strides_;
  size_ = other.size_;
  lease_.release();
  ws_.reset();
  owned_.resize(static_cast<std::size_t>(size_));
  if (size_ > 0) std::copy(other.data_ptr_, other.data_ptr_ + size_, owned_.data());
  data_ptr_ = owned_.data();
  return *this;
}

void DenseTensor::reshape(std::vector<index_t> shape) {
  set_shape(std::move(shape));
  if (ws_) {
    if (size_ > lease_.capacity()) lease_ = ws_->lease(size_);
    data_ptr_ = lease_.data();
  } else {
    if (size_ > static_cast<index_t>(owned_.size()))
      owned_.resize(static_cast<std::size_t>(size_), 0.0);
    data_ptr_ = owned_.data();
  }
}

index_t DenseTensor::linearize(std::span<const index_t> idx) const {
  PARPP_ASSERT(static_cast<int>(idx.size()) == order(),
               "linearize: index order mismatch");
  index_t lin = 0;
  for (std::size_t m = 0; m < idx.size(); ++m) {
    PARPP_ASSERT(idx[m] >= 0 && idx[m] < shape_[m], "index out of bounds");
    lin += idx[m] * strides_[m];
  }
  return lin;
}

void DenseTensor::fill(double v) { std::fill(data_ptr_, data_ptr_ + size_, v); }

void DenseTensor::fill_uniform(Rng& rng) {
  for (index_t i = 0; i < size_; ++i) data_ptr_[i] = rng.uniform();
}

void DenseTensor::fill_normal(Rng& rng) {
  for (index_t i = 0; i < size_; ++i) data_ptr_[i] = rng.normal();
}

double DenseTensor::squared_norm() const {
  const auto sum_sq = [this](index_t lo, index_t hi) {
    double s = 0.0;
    for (index_t i = lo; i < hi; ++i) {
      const double x = data_ptr_[i];
      s += x * x;
    }
    return s;
  };
  if (size_ <= (index_t{1} << 18)) return sum_sq(0, size_);
  // Fixed-size blocks whose sums are added in index order, so the value
  // does not depend on the thread count or on the order threads finish.
  constexpr index_t kBlock = index_t{1} << 14;
  const index_t blocks = (size_ + kBlock - 1) / kBlock;
  std::vector<double> partial(static_cast<std::size_t>(blocks));
#pragma omp parallel for schedule(static)
  for (index_t b = 0; b < blocks; ++b) {
    partial[static_cast<std::size_t>(b)] =
        sum_sq(b * kBlock, std::min(size_, (b + 1) * kBlock));
  }
  double s = 0.0;
  for (const double p : partial) s += p;
  return s;
}

double DenseTensor::frobenius_norm() const { return std::sqrt(squared_norm()); }

double DenseTensor::max_abs_diff(const DenseTensor& other) const {
  PARPP_CHECK(shape_ == other.shape_, "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (index_t i = 0; i < size_; ++i)
    m = std::max(m, std::abs(data_ptr_[i] - other.data_ptr_[i]));
  return m;
}

void DenseTensor::axpy(double alpha, const DenseTensor& other) {
  PARPP_CHECK(shape_ == other.shape_, "axpy: shape mismatch");
#pragma omp parallel for schedule(static) if (size_ > (index_t{1} << 18))
  for (index_t i = 0; i < size_; ++i)
    data_ptr_[i] += alpha * other.data_ptr_[i];
}

index_t DenseTensor::extent_product(int first, int last) const {
  PARPP_ASSERT(first >= 0 && last <= order() && first <= last,
               "extent_product: bad range");
  index_t p = 1;
  for (int m = first; m < last; ++m) p *= shape_[static_cast<std::size_t>(m)];
  return p;
}

}  // namespace parpp::tensor
