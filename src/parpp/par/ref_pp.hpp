// Reference pairwise-perturbation kernels (Table I/II "PP-init-ref" and
// "PP-approx-ref").
//
// Models the original PP implementation of [Ma & Solomonik 2018], which
// drives each PP contraction through a general tensor-contraction library
// (Cyclops): the initialization step performs local multiplications and
// then a *reduction of the full output operator* across the processors
// that share its slabs, and the approximated step issues one collective per
// first-order correction U(n,i) — N^2 collectives per sweep instead of our
// N. Compute per rank is identical to the communication-efficient variant;
// only the collective pattern (and hence alpha/beta cost and wall time)
// differs, which is exactly what Table II measures.
#pragma once

#include "parpp/par/par_pp.hpp"

namespace parpp::par {

/// Times the reference PP kernels under the same harness and setup as
/// time_pp_kernels.
[[nodiscard]] PpKernelTimings time_ref_pp_kernels(
    const tensor::DenseTensor& global_t, const solver::SolverSpec& spec,
    int sweeps);

}  // namespace parpp::par
