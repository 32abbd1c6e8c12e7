#include "parpp/solver/registry.hpp"

#include "parpp/mpsim/grid.hpp"
#include "parpp/par/par_pp.hpp"
#include "parpp/solver/strings.hpp"

namespace parpp::solver {

namespace {

bool uses_pp(Method method) {
  return method == Method::kPp || method == Method::kPpNncp;
}

bool uses_hals(Method method) {
  return method == Method::kNncpHals || method == Method::kPpNncp;
}

}  // namespace

core::CpOptions base_options(const SolverSpec& spec) {
  core::CpOptions o;
  o.rank = spec.rank;
  o.max_sweeps = spec.stopping.max_sweeps;
  o.tol = spec.stopping.fitness_tol;
  o.seed = spec.seed;
  o.engine = uses_pp(spec.method) && spec.engine == core::EngineKind::kNaive
                 ? core::EngineKind::kMsdt
                 : spec.engine;
  o.engine_options = spec.engine_options;
  o.record_history = spec.record_history;
  return o;
}

par::ParOptions par_options(const SolverSpec& spec, int order) {
  par::ParOptions p;
  p.base = base_options(spec);
  p.grid_dims = spec.execution.grid_dims.empty()
                    ? mpsim::ProcessorGrid::balanced_dims(
                          spec.execution.nprocs, order)
                    : spec.execution.grid_dims;
  p.solve = spec.execution.solve_mode;
  p.threads_per_rank = spec.execution.threads_per_rank;
  p.fault = spec.execution.fault;
  p.comm_timeout_seconds = spec.execution.comm_timeout_seconds;
  p.elastic = spec.execution.elastic;
  return p;
}

namespace {

// One runner per sweep loop; the factor update comes from the method
// (HALS for the nonnegative ones).

par::ParResult run_par_plain(const dist::DistProblem& problem,
                             const SolverSpec& spec,
                             const core::DriverHooks& hooks) {
  return par::par_cp_als(
      problem, spec.execution.nprocs,
      par_options(spec, static_cast<int>(problem.global_shape().size())),
      hooks, uses_hals(spec.method) ? &spec.nncp : nullptr);
}

par::ParResult run_par_pp(const dist::DistProblem& problem,
                          const SolverSpec& spec,
                          const core::DriverHooks& hooks) {
  return par::par_pp_cp_als(
      problem, spec.execution.nprocs,
      par_options(spec, static_cast<int>(problem.global_shape().size())),
      spec.pp, hooks, uses_hals(spec.method) ? &spec.nncp : nullptr);
}

const std::vector<MethodEntry>& registry() {
  static const std::vector<MethodEntry> entries{
      {Method::kAls, to_string(Method::kAls), run_par_plain},
      {Method::kPp, to_string(Method::kPp), run_par_pp},
      {Method::kNncpHals, to_string(Method::kNncpHals), run_par_plain},
      {Method::kPpNncp, to_string(Method::kPpNncp), run_par_pp},
  };
  return entries;
}

}  // namespace

const MethodEntry& method_entry(Method method) {
  for (const MethodEntry& e : registry()) {
    if (e.method == method) return e;
  }
  PARPP_CHECK(false, "solve: unregistered method ",
              static_cast<int>(method));
  return registry().front();  // unreachable
}

const std::vector<MethodEntry>& registered_methods() { return registry(); }

}  // namespace parpp::solver
