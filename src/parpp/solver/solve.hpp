// parpp::solve() — the single front door for every CP decomposition.
//
//   solver::SolverSpec spec;
//   spec.method = solver::Method::kPp;
//   spec.rank = 32;
//   auto report = parpp::solve(tensor, spec);
//
// The only entry point to a solve. Composes method x execution x engine
// with pluggable stopping, warm start and per-sweep observation; see
// spec.hpp for the axes and registry.hpp for how methods map onto the four
// sweep loops (plain and PP, each sequential over a core::TensorProblem
// and parallel over a dist::DistProblem).
#pragma once

#include "parpp/solver/spec.hpp"

namespace parpp {

/// Runs the solve described by `spec` on any tensor source — dense or CSF
/// sparse storage, uniformly (TensorSource converts implicitly from both).
/// The source is converted into a problem once: core::make_problem for
/// sequential runs, a DenseBlockProblem or make_sparse_problem (with
/// execution.partition) for simulated-parallel ones. Sparse sources run the
/// same loops through the CSF engine with the no-densification fitness
/// identity, for every method (als, pp, nncp, pp-nncp) and both
/// executions. Throws parpp::error on an invalid spec (bad rank, warm-start
/// shape mismatch, bad grid).
[[nodiscard]] solver::SolveReport solve(const solver::TensorSource& t,
                                        const solver::SolverSpec& spec);

/// Storage-typed conveniences (exact-match overloads for existing callers).
[[nodiscard]] solver::SolveReport solve(const tensor::DenseTensor& t,
                                        const solver::SolverSpec& spec);
[[nodiscard]] solver::SolveReport solve(const tensor::CsfTensor& t,
                                        const solver::SolverSpec& spec);

}  // namespace parpp
