// Method registry: maps each Method to its sweep loop.
//
// There are two sweep loops, plain (Algorithm 1 / 3, par::par_cp_als) and
// pairwise perturbation (Algorithm 2 / 4, par::par_pp_cp_als), both over a
// dist::DistProblem; a sequential solve is their 1-rank run. A Method picks
// one loop and one factor update (the normal-equations solve or HALS).
// parpp::solve() converts the tensor source into a problem once and calls
// the method's runner; the runners never see the storage class.
#pragma once

#include <string_view>
#include <vector>

#include "parpp/solver/spec.hpp"

namespace parpp::solver {

struct MethodEntry {
  Method method;
  std::string_view name;
  /// Runs the method's sweep loop on execution.nprocs ranks with the
  /// options derived from the spec plus the facade's hooks.
  par::ParResult (*run)(const dist::DistProblem&, const SolverSpec&,
                        const core::DriverHooks&);
};

/// The entry for `method`; throws parpp::error for an unregistered method.
[[nodiscard]] const MethodEntry& method_entry(Method method);

/// All registered methods, in enum order (CLI help, bench sweeps).
[[nodiscard]] const std::vector<MethodEntry>& registered_methods();

/// Loop options derived from a spec — shared by the registry runners and
/// exposed for tests that compare the facade with the loops. The PP
/// methods need a tree engine for their operator-build amortization, so
/// base_options promotes kNaive to kMsdt for them (the one place that
/// promotion happens); par_options builds on base_options.
[[nodiscard]] core::CpOptions base_options(const SolverSpec& spec);
[[nodiscard]] par::ParOptions par_options(const SolverSpec& spec, int order);

}  // namespace parpp::solver
