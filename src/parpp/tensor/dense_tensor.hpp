// Dense order-N tensor with row-major (last-mode-fastest) layout.
#pragma once

#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/util/common.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::tensor {

namespace detail {
/// std::allocator whose value-less construct() default-initializes, so a
/// vector<double> can grow without writing its elements first. Construction
/// with arguments falls through to std::construct_at.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>& /*other*/) noexcept {}

  template <typename U>
  void construct(U* p) noexcept { ::new (static_cast<void*>(p)) U; }
};
}  // namespace detail

/// Dense tensor of doubles. Storage is row-major: the last mode varies
/// fastest, matching the layout assumptions of the TTM/mTTV kernels
/// (dimension-tree intermediates carry their rank mode last so corrections
/// and contractions stream over contiguous memory).
///
/// Storage is either owned (zero-initialized, the default) or leased from a
/// KernelWorkspace (uninitialized — the engines overwrite every element via
/// the *_into kernels). Owned storage is allocated without value
/// initialization and zeroed in fixed blocks, on the OpenMP team from
/// kParallelZeroMin entries, so a large tensor's pages are first touched
/// by every thread rather than by one. reshape() re-targets the same
/// storage when capacity allows, which is what makes steady-state tree
/// sweeps allocation-free. Copying always deep-copies into owned storage;
/// moving transfers the lease.
class DenseTensor {
 public:
  /// Entries from which DenseTensor(shape) zeroes on the team.
  static constexpr index_t kParallelZeroMin = index_t{1} << 18;

  DenseTensor() = default;
  explicit DenseTensor(std::vector<index_t> shape);
  /// Workspace-backed tensor; contents are UNINITIALIZED.
  DenseTensor(std::vector<index_t> shape, util::KernelWorkspace& ws);
  /// Empty workspace-backed tensor: holds no buffer until reshape()d, then
  /// leases from `ws`. The canonical start state for engine cache nodes.
  explicit DenseTensor(util::KernelWorkspace& ws) : ws_(ws) { set_shape({0}); }

  DenseTensor(const DenseTensor& other);
  DenseTensor& operator=(const DenseTensor& other);
  DenseTensor(DenseTensor&& other) noexcept = default;
  DenseTensor& operator=(DenseTensor&& other) noexcept = default;

  /// Re-shapes in place. Reuses the current buffer when its capacity holds
  /// the new size (workspace-backed tensors re-lease when it does not;
  /// owned tensors resize, zero-filling only newly exposed elements).
  /// Existing contents are NOT preserved in any meaningful layout.
  void reshape(std::vector<index_t> shape);

  [[nodiscard]] int order() const { return static_cast<int>(shape_.size()); }
  [[nodiscard]] const std::vector<index_t>& shape() const { return shape_; }
  [[nodiscard]] index_t extent(int mode) const {
    PARPP_ASSERT(mode >= 0 && mode < order(), "extent: bad mode ", mode);
    return shape_[static_cast<std::size_t>(mode)];
  }
  [[nodiscard]] index_t size() const { return size_; }
  [[nodiscard]] const std::vector<index_t>& strides() const { return strides_; }

  [[nodiscard]] double* data() { return data_ptr_; }
  [[nodiscard]] const double* data() const { return data_ptr_; }

  [[nodiscard]] double& operator[](index_t linear) {
    PARPP_ASSERT(linear >= 0 && linear < size_, "linear index out of range");
    return data_ptr_[linear];
  }
  [[nodiscard]] double operator[](index_t linear) const {
    PARPP_ASSERT(linear >= 0 && linear < size_, "linear index out of range");
    return data_ptr_[linear];
  }

  [[nodiscard]] double& at(std::span<const index_t> idx) {
    return data_ptr_[linearize(idx)];
  }
  [[nodiscard]] double at(std::span<const index_t> idx) const {
    return data_ptr_[linearize(idx)];
  }

  [[nodiscard]] index_t linearize(std::span<const index_t> idx) const;

  void fill(double v);
  void set_zero() { fill(0.0); }
  void fill_uniform(Rng& rng);
  void fill_normal(Rng& rng);

  [[nodiscard]] double frobenius_norm() const;
  [[nodiscard]] double squared_norm() const;
  [[nodiscard]] double max_abs_diff(const DenseTensor& other) const;

  /// this += alpha * other (same shape).
  void axpy(double alpha, const DenseTensor& other);

  /// Product of extents over [first, last) — helper for kernel loop bounds.
  [[nodiscard]] index_t extent_product(int first, int last) const;

 private:
  void set_shape(std::vector<index_t> shape);

  std::vector<index_t> shape_;
  std::vector<index_t> strides_;
  index_t size_ = 0;
  // Exactly one of the two storages backs data_ptr_ (owned_ when the lease
  // is disengaged). ws_ holds a *copy* of the workspace handle — a cheap
  // shared-pool reference — so reshape() growth stays valid even if the
  // tensor is moved beyond the lifetime of the original handle.
  std::vector<double, detail::DefaultInitAllocator<double>> owned_;
  util::KernelWorkspace::Lease lease_;
  std::optional<util::KernelWorkspace> ws_;
  double* data_ptr_ = nullptr;
};

/// Row-major strides for a shape (last mode has stride 1).
[[nodiscard]] std::vector<index_t> row_major_strides(
    const std::vector<index_t>& shape);

/// Advance a multi-index odometer-style; returns false after wrapping.
bool next_index(std::span<const index_t> shape, std::span<index_t> idx);

}  // namespace parpp::tensor
