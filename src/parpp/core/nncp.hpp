// Nonnegative CP decomposition via HALS (hierarchical ALS).
//
// The paper's time-lapse hyperspectral dataset (Fig. 5f) is "usually used
// on the benchmark of nonnegative tensor decomposition" (citing Liavas et
// al. and Ballard et al.), and the PLANC comparator is a nonnegative CP
// code. This module completes that context: a nonnegative CP-ALS whose
// bottleneck is the *same* MTTKRP the tree engines accelerate, so DT/MSDT
// plug in unchanged.
//
// HALS updates one rank-one component at a time:
//   A(n)(:,r) <- max(0, A(n)(:,r) + (M(n)(:,r) - A(n) Γ(n)(:,r)) / Γ(n)(r,r))
// which needs exactly one MTTKRP per mode per sweep — identical cost
// structure to plain ALS, plus O(s R^2) vector work.
#pragma once

#include "parpp/core/cp_als.hpp"

namespace parpp::core {

struct NncpOptions {
  /// Floor applied after each HALS column update (keeps Γ nonsingular).
  double epsilon = 1e-12;
  /// Number of HALS inner passes over the columns per mode update.
  int inner_iterations = 1;
};

/// One HALS pass over the columns of A given M = MTTKRP(A's mode) and Γ:
///   A(:,r) <- max(0, A(:,r) + (M(:,r) - A Γ(:,r)) / Γ(r,r))
/// followed by an eps_floor rescue of exactly-zero columns (keeps Γ
/// nonsingular). Columns update sequentially (Gauss-Seidel), rows
/// independently — shared by the plain and PP-accelerated HALS drivers.
void hals_update(la::Matrix& a, const la::Matrix& m, const la::Matrix& gamma,
                 double eps_floor, Profile& profile);

/// The HALS factor update for the shared sweep loops (cp_als, pp_cp_als):
/// `inner_iterations` hals_update passes per mode. Factors initialized
/// uniform in [0,1) are already nonnegative and stay entrywise >= 0; HALS
/// consumes only the MTTKRP and the grams, so sparse storage and the PP
/// approximation plug in unchanged.
[[nodiscard]] FactorUpdate nncp_update(const NncpOptions& options);

}  // namespace parpp::core
