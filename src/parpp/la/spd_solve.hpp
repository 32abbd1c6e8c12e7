// SPD solve with ridge retry and pseudo-inverse fallback — the ALS factor
// update kernel.
#pragma once

#include <cstdint>

#include "parpp/la/matrix.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::la {

/// Thread-local breakdown counters for solve_gram. The sweep loop diffs the
/// counters across each sweep, turning silent numerical rescue
/// paths into reportable recovery-log events (each simulated rank is its
/// own thread, so parallel runs see exactly their rank's solves).
struct SpdStats {
  std::uint64_t cholesky_failures = 0;  ///< Cholesky rejected the Gram
  std::uint64_t ridge_recoveries = 0;   ///< ridge-regularized retry worked
  std::uint64_t pinv_fallbacks = 0;     ///< fell through to eig pseudo-inverse
  std::uint64_t nonfinite_grams = 0;    ///< G had NaN/Inf; zero solve returned
};

[[nodiscard]] SpdStats& spd_stats();

/// Computes X = M * G† where G is symmetric positive (semi-)definite R x R
/// and M is s x R — the CP-ALS update A(n) = M(n) Γ(n)† (Algorithm 1 line 8).
///
/// Fast path: Cholesky of G and s independent two-triangular solves
/// (parallel over rows of M). If G is not numerically PD, retries with an
/// escalating ridge G + λI (λ relative to the mean diagonal) — the standard
/// ALS regularization for an ill-conditioned Gram, and exact in the limit
/// λ→0 — before falling back to a Jacobi eigendecomposition pseudo-inverse
/// with relative cutoff `rcond`. A non-finite G short-circuits to a zero
/// matrix (the Jacobi iteration is not NaN-safe); the per-sweep health
/// checks in the sweep loop observe the NaN Gram itself and roll back. Every
/// rescue path bumps spd_stats(). Work is charged to Kernel::kSolve in
/// `profile`.
[[nodiscard]] Matrix solve_gram(const Matrix& g, const Matrix& m,
                                Profile* profile = nullptr,
                                double rcond = 1e-12);

}  // namespace parpp::la
