// parpp::solve() facade: spec round-trips against the sweep loops it
// dispatches to, warm-start determinism, observer early-abort and stopping
// rules.
#include <gtest/gtest.h>

#include <omp.h>

#include <cmath>
#include <string>
#include <thread>

#include "parpp/par/par_pp.hpp"
#include "parpp/solver/solver.hpp"
#include "test_util.hpp"

namespace parpp::solver {
namespace {

SolverSpec small_spec(Method method, index_t rank = 4) {
  SolverSpec spec;
  spec.method = method;
  spec.rank = rank;
  spec.stopping.max_sweeps = 20;
  spec.stopping.fitness_tol = 0.0;  // fixed sweep count: determinism checks
  spec.pp.pp_tol = 0.3;
  return spec;
}

void expect_factors_identical(const std::vector<la::Matrix>& a,
                              const std::vector<la::Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].rows(), b[i].rows());
    ASSERT_EQ(a[i].cols(), b[i].cols());
    EXPECT_EQ(a[i].max_abs_diff(b[i]), 0.0)
        << "factor " << i << " must match bit-for-bit";
  }
}

TEST(SolverStrings, RoundTripsEveryEnum) {
  for (Method m : {Method::kAls, Method::kPp, Method::kNncpHals,
                   Method::kPpNncp}) {
    const auto parsed = method_from_string(to_string(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
  for (core::EngineKind e :
       {core::EngineKind::kNaive, core::EngineKind::kDt,
        core::EngineKind::kMsdt}) {
    const auto parsed = engine_from_string(to_string(e));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, e);
  }
  for (par::SolveMode s : {par::SolveMode::kDistributedRows,
                           par::SolveMode::kReplicatedSequential}) {
    const auto parsed = solve_mode_from_string(to_string(s));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_FALSE(method_from_string("cubist").has_value());
  EXPECT_FALSE(engine_from_string("gpu").has_value());
  // Case-insensitive parses (CLI convenience).
  EXPECT_EQ(method_from_string("PP-NNCP"), Method::kPpNncp);
  EXPECT_EQ(engine_from_string("MSDT"), core::EngineKind::kMsdt);
}

TEST(SolverRegistry, ListsEveryMethodOnce) {
  const auto& methods = registered_methods();
  ASSERT_EQ(methods.size(), 4u);
  for (const MethodEntry& e : methods) {
    EXPECT_EQ(&method_entry(e.method), &e);
    EXPECT_NE(e.run, nullptr);
  }
}

// --- spec round-trips: facade == problem-typed loop, bit for bit ----------
// The sequential cases run the loop at one rank, on a copied block, while
// the facade views the caller's tensor.

TEST(SolveFacade, AlsMatchesLegacySequential) {
  const auto t = test::low_rank_tensor({9, 8, 7}, 3, 901);
  const SolverSpec spec = small_spec(Method::kAls);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct = par::par_cp_als(
      dist::DenseBlockProblem(t), 1, par_options(spec, t.order()));
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
  ASSERT_EQ(facade.history.size(), direct.history.size());
}

TEST(SolveFacade, PpMatchesLegacySequential) {
  const auto t = test::low_rank_tensor({10, 9, 8}, 3, 902);
  const SolverSpec spec = small_spec(Method::kPp);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct = par::par_pp_cp_als(
      dist::DenseBlockProblem(t), 1, par_options(spec, t.order()), spec.pp);
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
  EXPECT_EQ(facade.num_pp_init, direct.num_pp_init);
  EXPECT_EQ(facade.num_pp_approx, direct.num_pp_approx);
}

TEST(SolveFacade, NncpMatchesLegacySequential) {
  const auto t = test::low_rank_tensor({9, 8, 7}, 3, 903);
  const SolverSpec spec = small_spec(Method::kNncpHals);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct =
      par::par_cp_als(dist::DenseBlockProblem(t), 1,
                      par_options(spec, t.order()), {}, &spec.nncp);
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
}

TEST(SolveFacade, PpNncpMatchesDriverSequential) {
  const auto t = test::low_rank_tensor({9, 8, 7}, 3, 904);
  const SolverSpec spec = small_spec(Method::kPpNncp);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct = par::par_pp_cp_als(
      dist::DenseBlockProblem(t), 1, par_options(spec, t.order()), spec.pp,
      {}, &spec.nncp);
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
}

TEST(SolveFacade, AlsMatchesLegacyParallel) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 905);
  SolverSpec spec = small_spec(Method::kAls);
  spec.execution = Execution::simulated_parallel(4);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct = par::par_cp_als(
      dist::DenseBlockProblem(t), 4, par_options(spec, t.order()));
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
  // No hooks configured: the facade must add zero collectives.
  EXPECT_EQ(facade.comm_cost.total().messages,
            direct.comm_cost.total().messages);
}

TEST(SolveFacade, PpMatchesLegacyParallel) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 906);
  SolverSpec spec = small_spec(Method::kPp);
  spec.execution = Execution::simulated_parallel(4);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct = par::par_pp_cp_als(
      dist::DenseBlockProblem(t), 4, par_options(spec, t.order()), spec.pp);
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
  EXPECT_EQ(facade.comm_cost.total().messages,
            direct.comm_cost.total().messages);
}

TEST(SolveFacade, NncpMatchesLegacyParallel) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 907);
  SolverSpec spec = small_spec(Method::kNncpHals);
  spec.execution = Execution::simulated_parallel(4);
  const SolveReport facade = parpp::solve(t, spec);
  const par::ParResult direct =
      par::par_cp_als(dist::DenseBlockProblem(t), 4,
                      par_options(spec, t.order()), {}, &spec.nncp);
  expect_factors_identical(facade.factors, direct.factors);
  EXPECT_EQ(facade.fitness, direct.fitness);
  EXPECT_EQ(facade.sweeps, direct.sweeps);
  EXPECT_EQ(facade.comm_cost.total().messages,
            direct.comm_cost.total().messages);
}

TEST(SolveFacade, EveryMethodExecutionCellRuns) {
  // A nonnegative planted tensor every method can recover: the full
  // method x execution matrix must run and converge through one facade.
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 908);
  for (const MethodEntry& entry : registered_methods()) {
    for (int procs : {1, 4}) {
      SolverSpec spec;
      spec.method = entry.method;
      spec.rank = 2;
      spec.stopping.max_sweeps = 200;
      spec.stopping.fitness_tol = 1e-9;
      spec.pp.pp_tol = 0.3;
      if (procs > 1) spec.execution = Execution::simulated_parallel(procs);
      const SolveReport r = parpp::solve(t, spec);
      EXPECT_GT(r.fitness, 0.9)
          << std::string(entry.name) << " x procs=" << procs;
      EXPECT_EQ(r.factors.size(), 3u);
    }
  }
}

TEST(SolveFacade, ProfilesInEveryCell) {
  // Every method records where its time went on both executions; the
  // parallel loops add one slowest-rank profile per sweep and a critical
  // path that books the MTTKRP work.
  const auto t = test::random_tensor({12, 10, 8}, 921);
  for (const MethodEntry& entry : registered_methods()) {
    for (int procs : {1, 4}) {
      SolverSpec spec = small_spec(entry.method);
      spec.stopping.max_sweeps = 6;
      spec.stopping.fitness_tol = -1.0;  // every sweep runs
      if (procs > 1) spec.execution = Execution::simulated_parallel(procs);
      const SolveReport r = parpp::solve(t, spec);
      const std::string cell =
          std::string(entry.name) + " x procs=" + std::to_string(procs);
      EXPECT_GT(r.profile.total_flops(), 0.0) << cell;
      if (procs == 1) continue;
      EXPECT_EQ(static_cast<int>(r.sweep_profiles.size()), r.sweeps) << cell;
      EXPECT_GT(r.critical_path_profile.flops(Kernel::kTTM), 0.0) << cell;
    }
  }
}

// --- warm start -----------------------------------------------------------

TEST(SolveFacade, WarmStartContinuesBitForBitOnNaiveEngine) {
  // The naive engine carries no cross-sweep state, so 6 + 6 warm-started
  // sweeps must replay 12 continuous sweeps exactly.
  const auto t = test::low_rank_tensor({8, 7, 6}, 3, 909);
  SolverSpec spec = small_spec(Method::kAls, 3);
  spec.engine = core::EngineKind::kNaive;
  spec.stopping.max_sweeps = 12;
  const SolveReport full = parpp::solve(t, spec);

  spec.stopping.max_sweeps = 6;
  const SolveReport first = parpp::solve(t, spec);
  SolverSpec resumed = spec;
  resumed.initial_factors = first.factors;
  const SolveReport second = parpp::solve(t, resumed);

  expect_factors_identical(full.factors, second.factors);
  EXPECT_EQ(full.fitness, second.fitness);
}

TEST(SolveFacade, WarmStartContinuesFitnessCurveOnTreeEngine) {
  const auto t = test::random_tensor({9, 8, 7}, 910);
  SolverSpec spec = small_spec(Method::kAls, 4);
  spec.stopping.max_sweeps = 14;
  const SolveReport full = parpp::solve(t, spec);

  spec.stopping.max_sweeps = 7;
  const SolveReport first = parpp::solve(t, spec);
  SolverSpec resumed = spec;
  resumed.initial_factors = first.factors;
  const SolveReport second = parpp::solve(t, resumed);

  // Tree-engine caches rebuild deterministically from the factor values,
  // so the resumed trajectory tracks the continuous one tightly.
  EXPECT_NEAR(full.fitness, second.fitness, 1e-10);
  ASSERT_EQ(second.history.size(), 7u);
  EXPECT_GE(second.history.front().fitness,
            first.history.back().fitness - 1e-10)
      << "resume must continue the fitness curve, not restart it";
}

TEST(SolveFacade, WarmStartAppliesToParallelExecution) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 911);
  SolverSpec spec = small_spec(Method::kAls, 3);
  spec.stopping.max_sweeps = 10;
  const SolveReport seq = parpp::solve(t, spec);

  SolverSpec warm = spec;
  warm.initial_factors = seq.factors;
  warm.stopping.max_sweeps = 4;
  warm.execution = Execution::simulated_parallel(4);
  const SolveReport par_resumed = parpp::solve(t, warm);
  EXPECT_GE(par_resumed.fitness, seq.fitness - 1e-6)
      << "parallel resume from sequential factors must not regress";
}

TEST(SolveFacade, WarmStartRejectsShapeMismatch) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 3, 912);
  SolverSpec spec = small_spec(Method::kAls, 3);
  spec.initial_factors = core::init_factors({8, 7, 5}, 3, 1);
  EXPECT_THROW((void)parpp::solve(t, spec), error);
}

// --- stopping rules and observer ------------------------------------------

TEST(SolveFacade, ObserverEarlyAbort) {
  const auto t = test::random_tensor({8, 7, 6}, 913);
  SolverSpec spec = small_spec(Method::kAls, 4);
  int seen = 0;
  // A 1-rank solve runs inline: the observer sees the caller's thread and
  // OpenMP team.
  const std::thread::id caller = std::this_thread::get_id();
  const int saved_threads = omp_get_max_threads();
  omp_set_num_threads(3);
  spec.observer = [&seen, caller](const core::SweepRecord&,
                                  const std::vector<la::Matrix>& factors) {
    EXPECT_EQ(factors.size(), 3u) << "1-rank observer sees the factors";
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(omp_get_max_threads(), 3);
    return ++seen >= 3 ? ObserverAction::kStop : ObserverAction::kContinue;
  };
  const SolveReport r = parpp::solve(t, spec);
  omp_set_num_threads(saved_threads);
  EXPECT_EQ(r.sweeps, 3);
  EXPECT_EQ(seen, 3);
  EXPECT_EQ(r.stop_reason, StopReason::kObserver);
}

TEST(SolveFacade, ObserverEarlyAbortParallel) {
  const auto t = test::low_rank_tensor({8, 8, 8}, 3, 914);
  SolverSpec spec = small_spec(Method::kAls, 3);
  spec.execution = Execution::simulated_parallel(4);
  int seen = 0;
  spec.observer = [&seen](const core::SweepRecord&,
                          const std::vector<la::Matrix>&) {
    return ++seen >= 2 ? ObserverAction::kStop : ObserverAction::kContinue;
  };
  const SolveReport r = parpp::solve(t, spec);
  EXPECT_EQ(r.sweeps, 2);
  EXPECT_EQ(r.stop_reason, StopReason::kObserver);
}

TEST(SolveFacade, PredicateStops) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 3, 915);
  SolverSpec spec = small_spec(Method::kAls, 3);
  spec.stopping.predicate = [](const core::SweepRecord& rec) {
    return rec.fitness > 0.5;
  };
  const SolveReport r = parpp::solve(t, spec);
  EXPECT_EQ(r.stop_reason, StopReason::kPredicate);
  EXPECT_GT(r.fitness, 0.5);
  EXPECT_LT(r.sweeps, spec.stopping.max_sweeps);
}

TEST(SolveFacade, TimeBudgetStops) {
  const auto t = test::random_tensor({10, 9, 8}, 916);
  SolverSpec spec = small_spec(Method::kAls, 4);
  spec.stopping.max_sweeps = 10000;
  spec.stopping.max_seconds = 1e-9;  // expires during the first sweep
  const SolveReport r = parpp::solve(t, spec);
  EXPECT_EQ(r.stop_reason, StopReason::kTimeBudget);
  EXPECT_EQ(r.sweeps, 1);
}

TEST(SolveFacade, StopReasonReportsConvergenceAndBudget) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 917);
  SolverSpec spec = small_spec(Method::kAls, 2);
  spec.stopping.max_sweeps = 200;
  spec.stopping.fitness_tol = 1e-6;
  const SolveReport converged = parpp::solve(t, spec);
  EXPECT_EQ(converged.stop_reason, StopReason::kConverged);

  // Re-running with the budget set to exactly the converged sweep count
  // still reports convergence (it happened on the final permitted sweep).
  spec.stopping.max_sweeps = converged.sweeps;
  EXPECT_EQ(parpp::solve(t, spec).stop_reason, StopReason::kConverged);

  // A noise tensor cannot converge in 2 sweeps: budget exhaustion.
  const auto noise = test::random_tensor({8, 7, 6}, 920);
  SolverSpec tight = small_spec(Method::kAls, 2);
  tight.stopping.max_sweeps = 2;
  tight.stopping.fitness_tol = 1e-6;
  EXPECT_EQ(parpp::solve(noise, tight).stop_reason, StopReason::kMaxSweeps);
}

TEST(SolveFacade, ObserverSubsumesHistoryWhenDisabled) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 3, 918);
  SolverSpec spec = small_spec(Method::kAls, 3);
  spec.record_history = false;
  std::vector<double> streamed;
  spec.observer = [&streamed](const core::SweepRecord& rec,
                              const std::vector<la::Matrix>&) {
    streamed.push_back(rec.fitness);
    return ObserverAction::kContinue;
  };
  const SolveReport r = parpp::solve(t, spec);
  EXPECT_TRUE(r.history.empty());
  EXPECT_EQ(static_cast<int>(streamed.size()), r.sweeps);
}

TEST(SolveFacade, RejectsInvalidSpecs) {
  const auto t = test::low_rank_tensor({8, 7, 6}, 2, 919);
  SolverSpec bad_rank = small_spec(Method::kAls);
  bad_rank.rank = 0;
  EXPECT_THROW((void)parpp::solve(t, bad_rank), error);
  SolverSpec bad_sweeps = small_spec(Method::kAls);
  bad_sweeps.stopping.max_sweeps = 0;
  EXPECT_THROW((void)parpp::solve(t, bad_sweeps), error);
}

}  // namespace
}  // namespace parpp::solver
