// Blocked, OpenMP-threaded general matrix multiply and Gram kernels.
//
// These stand in for the MKL routines the paper links against; they keep
// the same asymptotic compute/bandwidth profile (TTM is GEMM-bound).
#pragma once

#include "parpp/la/matrix.hpp"
#include "parpp/util/common.hpp"
#include "parpp/util/profile.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::la {

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C over raw row-major buffers.
/// op(A) is m x k, op(B) is k x n, C is m x n with leading dimensions
/// lda/ldb/ldc (row strides).
void gemm_raw(Trans trans_a, Trans trans_b, index_t m, index_t n, index_t k,
              double alpha, const double* a, index_t lda, const double* b,
              index_t ldb, double beta, double* c, index_t ldc);

/// C = op(A) * op(B) convenience wrapper on Matrix.
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b,
                            Trans trans_a = Trans::kNo,
                            Trans trans_b = Trans::kNo);

/// Gram matrix S = A^T A for A in R^{m x n} (paper's S(i) = A(i)^T A(i)).
/// Exploits symmetry of the result; per-thread partial sums come from the
/// workspace pool (`ws` defaults to the calling thread's) and are merged by
/// a parallel binary tree. Charges Kernel::kOther.
[[nodiscard]] Matrix gram(const Matrix& a, Profile* profile = nullptr,
                          util::KernelWorkspace* ws = nullptr);

}  // namespace parpp::la
