// Shared helpers for the parpp test suite.
#pragma once

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "parpp/core/cp_als.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/la/matrix.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/tensor/mttkrp_naive.hpp"
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

/// Brute-force reference sweeps, independent of every engine, sweep loop
/// and dist/ class: `sweeps` sweeps from the seeded initialization, each mode
/// updated against the KRP+GEMM MTTKRP and an explicitly formed Hadamard
/// of Grams, with the normal-equations solve or (hals) one pass of the
/// HALS column formula. Returns the factors; their fitness is
/// 1 - explicit_residual.
inline std::vector<la::Matrix> reference_sweeps(const tensor::DenseTensor& t,
                                                index_t rank,
                                                std::uint64_t seed,
                                                int sweeps, bool hals,
                                                double eps_floor = 1e-12) {
  std::vector<la::Matrix> f = core::init_factors(t.shape(), rank, seed);
  const int n = t.order();
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    for (int i = 0; i < n; ++i) {
      la::Matrix gamma(rank, rank);
      gamma.fill(1.0);
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        const la::Matrix& a = f[static_cast<std::size_t>(j)];
        for (index_t p = 0; p < rank; ++p)
          for (index_t q = 0; q < rank; ++q) {
            double g = 0.0;
            for (index_t row = 0; row < a.rows(); ++row)
              g += a(row, p) * a(row, q);
            gamma(p, q) *= g;
          }
      }
      const la::Matrix m = tensor::mttkrp_krp(t, f, i);
      la::Matrix& a = f[static_cast<std::size_t>(i)];
      if (!hals) {
        a = core::update_factor(gamma, m);
        continue;
      }
      for (index_t c = 0; c < rank; ++c) {
        const double gcc = std::max(gamma(c, c), eps_floor);
        for (index_t row = 0; row < a.rows(); ++row) {
          double ag = 0.0;
          for (index_t k = 0; k < rank; ++k) ag += a(row, k) * gamma(k, c);
          a(row, c) = std::max(a(row, c) + (m(row, c) - ag) / gcc, 0.0);
        }
      }
      for (index_t c = 0; c < rank; ++c) {
        bool zero = true;
        for (index_t row = 0; row < a.rows(); ++row) zero &= a(row, c) == 0.0;
        if (zero)
          for (index_t row = 0; row < a.rows(); ++row) a(row, c) = eps_floor;
      }
    }
  }
  return f;
}

/// Runs `body` with the OpenMP thread count forced to `threads`.
template <typename Body>
void with_threads(int threads, Body&& body) {
  const int ambient = omp_get_max_threads();
  omp_set_num_threads(threads);
  body();
  omp_set_num_threads(ambient);
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
