#include "parpp/core/pp_als.hpp"

#include <cmath>

#include "parpp/core/dim_tree.hpp"
#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/core/sweep_guard.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/util/timer.hpp"

namespace parpp::core {

namespace {

/// All factors moved less than eps (relatively) since `reference`?
bool all_changes_small(const std::vector<la::Matrix>& factors,
                       const std::vector<la::Matrix>& reference, double eps) {
  for (std::size_t i = 0; i < factors.size(); ++i) {
    if (relative_change(factors[i], reference[i]) >= eps) return false;
  }
  return true;
}

}  // namespace

CpResult pp_cp_als(const TensorProblem& problem, const CpOptions& options,
                   const PpOptions& pp_options, const DriverHooks& hooks,
                   const FactorUpdate& update, const char* regular_phase) {
  const int n = problem.order();
  PARPP_CHECK(n >= 3, "pp driver: order must be >= 3");
  PARPP_CHECK(pp_options.pp_tol > 0.0 && pp_options.pp_tol < 1.0,
              "pp driver: pp_tol must be in (0,1)");
  PARPP_CHECK(problem.make_pp_operators != nullptr,
              "pp driver: storage provides no PP operator factory");

  CpResult result;
  Profile profile;
  result.factors =
      resolve_init_factors(problem.shape, options.rank, options.seed, hooks);
  auto& factors = result.factors;
  std::vector<la::Matrix> grams = all_grams(factors, &profile);

  EngineOptions eopt = options.engine_options;
  auto engine = problem.make_engine(options.engine, factors, &profile, eopt);
  auto* tree_engine = dynamic_cast<TreeEngineBase*>(engine.get());
  auto ops_ptr = problem.make_pp_operators(factors, &profile, eopt);
  PpOperators& ops = *ops_ptr;

  // One mode update: apply the method's factor update, then refresh the
  // engine and Gram state (identical for exact and approximated MTTKRPs).
  auto update_mode = [&](int i, const la::Matrix& gamma, const la::Matrix& m) {
    update(factors[static_cast<std::size_t>(i)], gamma, m, profile);
    engine->notify_update(i);
    grams[static_cast<std::size_t>(i)] =
        la::gram(factors[static_cast<std::size_t>(i)], &profile);
  };

  const double t_sq = problem.squared_norm;
  WallTimer timer;

  // dA across the latest regular sweep; seeded with A itself so the PP
  // branch is skipped until at least one regular sweep ran (Algorithm 2
  // line 2: dA(i) <- A(i)).
  std::vector<la::Matrix> prev_sweep(factors.size());
  for (std::size_t i = 0; i < factors.size(); ++i) {
    prev_sweep[i] = la::Matrix(factors[i].rows(), factors[i].cols());
  }

  double fit = 0.0, fit_old = -1.0;
  if (hooks.resume != nullptr) {
    fit = hooks.resume->fitness;
    fit_old = hooks.resume->prev_fitness;
  }
  int total_sweeps = 0;
  int last_checkpoint = 0;
  SweepGuard guard(result, factors, grams);
  bool aborted = false;
  auto sweep_hook = [&](const SweepRecord& rec) {
    if (hooks.on_sweep && !hooks.on_sweep(rec, factors)) aborted = true;
    return !aborted;
  };
  while (!aborted && total_sweeps < options.max_sweeps &&
         std::abs(fit - fit_old) > options.tol) {
    // ---- PP phase (lines 5-18) --------------------------------------
    if (all_changes_small(factors, prev_sweep, pp_options.pp_tol)) {
      const std::vector<la::Matrix> a_p = factors;  // snapshot
      const std::vector<la::Matrix> grams_p = grams;
      const double fit_p = fit;
      ops.build(tree_engine);
      ++result.num_pp_init;
      ++total_sweeps;
      const SweepRecord init_rec{timer.seconds(), fit, "pp-init"};
      if (options.record_history) result.history.push_back(init_rec);
      if (!sweep_hook(init_rec)) break;

      PpApprox approx(ops, factors, a_p, grams, &profile);
      approx.set_second_order(pp_options.second_order);

      int pp_sweeps = 0;
      bool discarded = false;
      double pp_fit = fit, pp_fit_old = fit - 1.0;
      // Trust guard floor: the PP model can break down when Γ is
      // rank-deficient (e.g. CP rank above a mode extent). A phase whose
      // approximate fitness drops below this floor — or goes non-finite —
      // is discarded wholesale (factors, Grams and engine state restored
      // to the phase entry) and exact sweeps take over; the pair operators
      // are rebuilt at the next phase entry.
      const double fit_floor = fit - 10.0 * std::max(options.tol, 1e-6);
      while (all_changes_small(factors, a_p, pp_options.pp_tol) &&
             std::abs(pp_fit - pp_fit_old) > options.tol &&
             pp_sweeps < pp_options.max_pp_sweeps_per_phase &&
             total_sweeps < options.max_sweeps) {
        la::Matrix gamma_last, m_last;
        for (int j = 0; j < n; ++j) {
          la::Matrix gamma = gamma_chain(grams, j, &profile);
          la::Matrix m = approx.mttkrp_approx(j);
          update_mode(j, gamma, m);
          approx.refresh_mode(j);
          if (j == n - 1) {
            gamma_last = std::move(gamma);
            m_last = std::move(m);
          }
        }
        ++pp_sweeps;
        ++result.num_pp_approx;
        ++total_sweeps;
        // Fitness from the approximated MTTKRP — cheap and close to exact
        // while the PP condition holds; also the inner stopping criterion
        // (the paper stops on the fitness difference of neighbouring
        // sweeps, which must apply inside the PP phase too or a converged
        // run would spin until max_sweeps).
        const double r_approx = relative_residual(
            t_sq, gamma_last, grams[static_cast<std::size_t>(n - 1)], m_last,
            factors[static_cast<std::size_t>(n - 1)]);
        pp_fit_old = pp_fit;
        pp_fit = fitness_from_residual(r_approx);
        if (!std::isfinite(pp_fit) || pp_fit < fit_floor ||
            !guard.state_finite(pp_fit)) {
          factors = a_p;
          grams = grams_p;
          for (int j = 0; j < n; ++j) engine->notify_update(j);
          guard.record(total_sweeps,
                       "PP trust guard: approximated sweep regressed or went "
                       "non-finite; discarded the PP phase and resumed exact "
                       "sweeps");
          discarded = true;
          break;
        }
        const SweepRecord rec{timer.seconds(), pp_fit, "pp-approx"};
        if (options.record_history && pp_options.record_pp_sweeps) {
          result.history.push_back(rec);
        }
        if (!sweep_hook(rec)) break;
      }
      // Carry the PP-phase progress into the outer stopping comparison;
      // otherwise the next regular sweep is compared against a fitness
      // from before the whole phase and the loop re-initializes forever.
      // A discarded phase instead keeps the entry fitness (its sweeps
      // were reverted) so the driver continues with exact sweeps.
      if (discarded)
        fit = fit_p;
      else if (pp_sweeps > 0)
        fit = pp_fit;
    }

    if (aborted || total_sweeps >= options.max_sweeps) break;

    // ---- Regular sweep (line 19) ------------------------------------
    guard.snapshot(fit, fit_old, result.residual);
    prev_sweep = factors;
    la::Matrix gamma_last, m_last;
    for (int i = 0; i < n; ++i) {
      la::Matrix gamma = gamma_chain(grams, i, &profile);
      la::Matrix m = engine->mttkrp(i);
      update_mode(i, gamma, m);
      if (i == n - 1) {
        gamma_last = std::move(gamma);
        m_last = std::move(m);
      }
    }
    ++result.num_als_sweeps;
    ++total_sweeps;

    fit_old = fit;
    result.residual = relative_residual(
        t_sq, gamma_last, grams[static_cast<std::size_t>(n - 1)], m_last,
        factors[static_cast<std::size_t>(n - 1)]);
    fit = fitness_from_residual(result.residual);
    if (!guard.check_sweep(total_sweeps, fit, fit_old, engine.get())) break;
    const SweepRecord rec{timer.seconds(), fit, regular_phase};
    if (options.record_history) result.history.push_back(rec);
    // Checkpoints land after regular (exact) sweeps only, so the saved
    // factors are never mid-approximation.
    if (hooks.checkpoint_every > 0 && hooks.on_checkpoint &&
        total_sweeps - last_checkpoint >= hooks.checkpoint_every) {
      hooks.on_checkpoint(factors, total_sweeps, fit, fit_old);
      last_checkpoint = total_sweeps;
    }
    if (!sweep_hook(rec)) break;
  }

  // The loop may exit mid-PP-phase (max_sweeps); the stored residual would
  // then predate the last factor updates. Recompute it exactly with one
  // fresh MTTKRP of the last mode (no factor update).
  {
    const la::Matrix gamma = gamma_chain(grams, n - 1, &profile);
    const la::Matrix m = engine->mttkrp(n - 1);
    result.residual = relative_residual(
        t_sq, gamma, grams[static_cast<std::size_t>(n - 1)], m,
        factors[static_cast<std::size_t>(n - 1)]);
    fit = fitness_from_residual(result.residual);
  }

  result.fitness = fit;
  result.sweeps = total_sweeps;
  result.profile = profile;
  return result;
}

}  // namespace parpp::core
