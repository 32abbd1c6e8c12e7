#include "parpp/la/spd_solve.hpp"

#include <cmath>

#include "parpp/la/cholesky.hpp"
#include "parpp/la/eig_jacobi.hpp"
#include "parpp/la/gemm.hpp"

namespace parpp::la {

namespace {

// Row-wise triangular solves: for each row m_i of M, solve L z = m_i then
// L^T w = z; X row i = w. Rows are independent -> OpenMP over i.
Matrix solve_rows_cholesky(const Matrix& l, const Matrix& m) {
  const index_t s = m.rows();
  const index_t r = m.cols();
  Matrix x = m;
#pragma omp parallel for schedule(static) if (s * r * r > (index_t{1} << 14))
  for (index_t i = 0; i < s; ++i) {
    double* row = x.row(i);
    // forward: z_j = (row_j - sum_{k<j} L(j,k) z_k) / L(j,j)
    for (index_t j = 0; j < r; ++j) {
      double v = row[j];
      for (index_t k = 0; k < j; ++k) v -= l(j, k) * row[k];
      row[j] = v / l(j, j);
    }
    // backward: w_j = (z_j - sum_{k>j} L(k,j) w_k) / L(j,j)
    for (index_t j = r - 1; j >= 0; --j) {
      double v = row[j];
      for (index_t k = j + 1; k < r; ++k) v -= l(k, j) * row[k];
      row[j] = v / l(j, j);
    }
  }
  return x;
}

}  // namespace

SpdStats& spd_stats() {
  thread_local SpdStats stats;
  return stats;
}

Matrix solve_gram(const Matrix& g, const Matrix& m, Profile* profile,
                  double rcond) {
  PARPP_CHECK(g.rows() == g.cols(), "solve_gram: G must be square");
  PARPP_CHECK(m.cols() == g.rows(), "solve_gram: M cols ", m.cols(),
              " != G dim ", g.rows());
  const index_t r = g.rows();
  const double flops = 2.0 * static_cast<double>(m.rows()) * r * r;
  ScopedProfile sp(profile ? *profile : Profile::thread_default(),
                   Kernel::kSolve, flops);

  if (!g.all_finite()) {
    // The Jacobi eigensolver is not NaN-safe; return zeros and leave the
    // NaN Gram in place for the sweep loop's health check to catch.
    ++spd_stats().nonfinite_grams;
    Matrix zero(m.rows(), m.cols());
    return zero;
  }

  Matrix l = g;
  if (cholesky_lower(l)) {
    return solve_rows_cholesky(l, m);
  }
  ++spd_stats().cholesky_failures;

  // Ridge-regularized retries: G + λI is PD for any λ > 0 when G is PSD,
  // so an escalating relative ridge recovers from the rank-deficient Grams
  // ALS produces (duplicate columns, rank above a mode extent) at Cholesky
  // speed and with O(λ) perturbation of the update.
  double mean_diag = 0.0;
  for (index_t j = 0; j < r; ++j) mean_diag += g(j, j);
  mean_diag = std::max(mean_diag / static_cast<double>(r), 1e-300);
  for (double rel : {1e-12, 1e-8, 1e-4}) {
    Matrix gr = g;
    const double ridge = rel * mean_diag;
    for (index_t j = 0; j < r; ++j) gr(j, j) += ridge;
    l = gr;
    if (cholesky_lower(l)) {
      ++spd_stats().ridge_recoveries;
      return solve_rows_cholesky(l, m);
    }
  }
  ++spd_stats().pinv_fallbacks;

  // Pseudo-inverse fallback: X = M V diag(1/lambda_i if lambda_i > cut) V^T.
  const SymmetricEig eig = eig_symmetric(g);
  double lam_max = 0.0;
  for (double lam : eig.eigenvalues) lam_max = std::max(lam_max, std::abs(lam));
  const double cut = rcond * std::max(lam_max, 1e-300);

  Matrix mv = matmul(m, eig.eigenvectors);  // s x r
  for (index_t j = 0; j < r; ++j) {
    const double lam = eig.eigenvalues[static_cast<std::size_t>(j)];
    const double inv = std::abs(lam) > cut ? 1.0 / lam : 0.0;
    for (index_t i = 0; i < mv.rows(); ++i) mv(i, j) *= inv;
  }
  return matmul(mv, eig.eigenvectors, Trans::kNo, Trans::kYes);
}

}  // namespace parpp::la
