#include "parpp/core/nncp.hpp"

#include <algorithm>

namespace parpp::core {

void hals_update(la::Matrix& a, const la::Matrix& m, const la::Matrix& gamma,
                 double eps_floor, Profile& profile) {
  const index_t s = a.rows(), r = a.cols();
  ScopedProfile sp(profile, Kernel::kSolve,
                   2.0 * static_cast<double>(s) * r * r);
  for (index_t j = 0; j < r; ++j) {
    const double gjj = std::max(gamma(j, j), eps_floor);
#pragma omp parallel for schedule(static) if (s > 4096)
    for (index_t i = 0; i < s; ++i) {
      // (A Γ)(i, j) via the row-dot; columns update sequentially so later
      // columns see earlier updates (Gauss-Seidel — the HALS property).
      double agij = 0.0;
      const double* arow = a.row(i);
      for (index_t k = 0; k < r; ++k) agij += arow[k] * gamma(k, j);
      const double v = a(i, j) + (m(i, j) - agij) / gjj;
      a(i, j) = std::max(v, 0.0);
    }
  }
  // Keep columns away from exact zero so Γ stays nonsingular.
  for (index_t j = 0; j < r; ++j) {
    double col = 0.0;
    for (index_t i = 0; i < s; ++i) col += a(i, j) * a(i, j);
    if (col == 0.0) {
      for (index_t i = 0; i < s; ++i) a(i, j) = eps_floor;
    }
  }
}

FactorUpdate nncp_update(const NncpOptions& options) {
  PARPP_CHECK(options.inner_iterations >= 1,
              "nncp: need at least one inner iteration");
  return [options](la::Matrix& a, const la::Matrix& gamma, const la::Matrix& m,
                   Profile& profile) {
    for (int pass = 0; pass < options.inner_iterations; ++pass)
      hals_update(a, m, gamma, options.epsilon, profile);
  };
}

}  // namespace parpp::core
