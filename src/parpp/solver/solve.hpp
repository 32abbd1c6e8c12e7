// parpp::solve() — the single front door for every CP decomposition.
//
//   solver::SolverSpec spec;
//   spec.method = solver::Method::kPp;
//   spec.rank = 32;
//   auto report = parpp::solve(tensor, spec);
//
// The only entry point to a solve. Composes method x execution x engine
// with pluggable stopping, warm start and per-sweep observation; see
// spec.hpp for the axes and registry.hpp for how methods map onto the two
// sweep loops (plain and PP, both over a dist::DistProblem; a sequential
// solve is their 1-rank run).
#pragma once

#include "parpp/solver/spec.hpp"

namespace parpp {

/// Runs the solve described by `spec` on any tensor source — dense or CSF
/// sparse storage, uniformly (TensorSource converts implicitly from both).
/// The source is converted into one problem: a WholeTensorProblem that
/// views the tensor at one rank, a DenseBlockProblem or make_sparse_problem
/// (with execution.partition) at more. Sparse sources run the same loops
/// through the CSF engine with the no-densification fitness identity, for
/// every method (als, pp, nncp, pp-nncp) and rank count. Throws
/// parpp::error on an invalid spec (bad rank, warm-start shape mismatch,
/// bad grid, a PP method on an order-2 tensor, on a CsfLayout::kHalf
/// tensor or with pp_tol outside (0, 1)) before any rank starts.
[[nodiscard]] solver::SolveReport solve(const solver::TensorSource& t,
                                        const solver::SolverSpec& spec);

/// Storage-typed conveniences (exact-match overloads for existing callers).
[[nodiscard]] solver::SolveReport solve(const tensor::DenseTensor& t,
                                        const solver::SolverSpec& spec);
[[nodiscard]] solver::SolveReport solve(const tensor::CsfTensor& t,
                                        const solver::SolverSpec& spec);

}  // namespace parpp
