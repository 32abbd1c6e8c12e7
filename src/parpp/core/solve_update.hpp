// ALS factor update step: A(n) <- M(n) Γ(n)†.
#pragma once

#include "parpp/la/matrix.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::core {

/// Solves the normal equations of one ALS subproblem (Algorithm 1 line 8).
/// Thin named wrapper over la::solve_gram so drivers read like the paper.
[[nodiscard]] la::Matrix update_factor(const la::Matrix& gamma,
                                       const la::Matrix& mttkrp,
                                       Profile* profile = nullptr);

}  // namespace parpp::core
