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
// structure to plain ALS, plus O(s R^2) vector work. The update runs on
// each rank's factor rows (par::hals_update_rows) inside the same sweep
// loops as the solve.
#pragma once

namespace parpp::core {

struct NncpOptions {
  /// Floor applied after each HALS column update (keeps Γ nonsingular).
  double epsilon = 1e-12;
  /// Number of HALS inner passes over the columns per mode update.
  int inner_iterations = 1;
};

}  // namespace parpp::core
