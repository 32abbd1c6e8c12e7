// Dense row-major matrix type used throughout parpp.
#pragma once

#include <initializer_list>
#include <type_traits>
#include <vector>

#include "parpp/util/common.hpp"
#include "parpp/util/rng.hpp"

namespace parpp::la {

/// Dense row-major matrix of doubles. Row-major is the natural layout for
/// factor matrices A(i) in Rs×R: one row per tensor index, contiguous over
/// the rank mode, which is what the mTTV and Khatri-Rao kernels stream over.
class Matrix {
 public:
  Matrix() = default;
  Matrix(index_t rows, index_t cols);
  Matrix(index_t rows, index_t cols, std::initializer_list<double> values);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t size() const { return rows_ * cols_; }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  double& operator()(index_t i, index_t j) {
    PARPP_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                 "matrix index (", i, ",", j, ") out of ", rows_, "x", cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  double operator()(index_t i, index_t j) const {
    PARPP_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_,
                 "matrix index (", i, ",", j, ") out of ", rows_, "x", cols_);
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  [[nodiscard]] double* row(index_t i) { return data() + i * cols_; }
  [[nodiscard]] const double* row(index_t i) const { return data() + i * cols_; }

  void fill(double v);
  void set_zero() { fill(0.0); }

  /// Fill with uniform [0,1) entries (paper's factor initialization).
  void fill_uniform(Rng& rng);
  /// Fill with standard normal entries.
  void fill_normal(Rng& rng);

  [[nodiscard]] Matrix transposed() const;

  /// Frobenius norm and inner product.
  [[nodiscard]] double frobenius_norm() const;
  [[nodiscard]] double dot(const Matrix& other) const;

  /// this += alpha * other (same shape).
  void axpy(double alpha, const Matrix& other);
  /// this *= alpha.
  void scale(double alpha);

  /// Element-wise (Hadamard) product into this.
  void hadamard_inplace(const Matrix& other);

  /// Max |a_ij - b_ij| between two same-shaped matrices.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  /// True when every entry is finite (no NaN/Inf) — the cheap per-sweep
  /// health check the resilient drivers run on factors and Grams.
  [[nodiscard]] bool all_finite() const;

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> data_;
};

/// Hadamard product C = A * B (element-wise).
[[nodiscard]] Matrix hadamard(const Matrix& a, const Matrix& b);

/// Identity matrix of size n.
[[nodiscard]] Matrix identity(index_t n);

/// Dispatches a runtime CP rank to a compile-time register-block width.
/// The blocked kernels instantiate R ∈ {8, 16, 32} with exact trip counts
/// (the autovectorizer fully unrolls the rank loop into registers); every
/// other rank takes the generic `0` instantiation with a runtime bound.
template <typename Fn>
decltype(auto) rank_dispatch(index_t r, Fn&& fn) {
  switch (r) {
    case 8:
      return fn(std::integral_constant<int, 8>{});
    case 16:
      return fn(std::integral_constant<int, 16>{});
    case 32:
      return fn(std::integral_constant<int, 32>{});
    default:
      return fn(std::integral_constant<int, 0>{});
  }
}

}  // namespace parpp::la
