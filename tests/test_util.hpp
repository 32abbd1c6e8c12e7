// Shared helpers for the parpp test suite.
#pragma once

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "parpp/core/cp_als.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/tensor/reconstruct.hpp"
#include "parpp/util/rng.hpp"

namespace parpp::test {

inline tensor::DenseTensor random_tensor(const std::vector<index_t>& shape,
                                         std::uint64_t seed) {
  tensor::DenseTensor t(shape);
  Rng rng(seed);
  t.fill_uniform(rng);
  return t;
}

inline tensor::DenseTensor random_normal_tensor(
    const std::vector<index_t>& shape, std::uint64_t seed) {
  tensor::DenseTensor t(shape);
  Rng rng(seed);
  t.fill_normal(rng);
  return t;
}

inline la::Matrix random_matrix(index_t rows, index_t cols,
                                std::uint64_t seed) {
  la::Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng);
  return m;
}

inline std::vector<la::Matrix> random_factors(
    const std::vector<index_t>& shape, index_t rank, std::uint64_t seed) {
  return core::init_factors(shape, rank, seed);
}

/// Exact low-rank tensor with known factors.
inline tensor::DenseTensor low_rank_tensor(const std::vector<index_t>& shape,
                                           index_t rank, std::uint64_t seed) {
  return tensor::reconstruct(random_factors(shape, rank, seed));
}

inline void expect_matrix_near(const la::Matrix& a, const la::Matrix& b,
                               double tol, const char* what = "") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

inline void expect_tensor_near(const tensor::DenseTensor& a,
                               const tensor::DenseTensor& b, double tol,
                               const char* what = "") {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_LE(a.max_abs_diff(b), tol) << what;
}

/// Explicit relative residual ||T - [[A]]||_F / ||T||_F by reconstruction —
/// the ground truth that Eq. (3) must match.
inline double explicit_residual(const tensor::DenseTensor& t,
                                const std::vector<la::Matrix>& factors) {
  tensor::DenseTensor approx = tensor::reconstruct(factors);
  approx.axpy(-1.0, t);
  return approx.frobenius_norm() / t.frobenius_norm();
}

/// Writes `dims` as "6x7x8". Value-parameterized cases print through this
/// so the CTest name derived from the parameter is the same on every build
/// (gtest's fallback printer dumps raw bytes, heap addresses included).
template <typename T>
void print_dims(const std::vector<T>& dims, std::ostream* os) {
  for (std::size_t i = 0; i < dims.size(); ++i) {
    *os << (i == 0 ? "" : "x") << dims[i];
  }
}

}  // namespace parpp::test
