#include "parpp/core/cp_als.hpp"

#include <cmath>

#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/core/sweep_guard.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/util/timer.hpp"

namespace parpp::core {

std::vector<la::Matrix> init_factors(const std::vector<index_t>& shape,
                                     index_t rank, std::uint64_t seed) {
  Rng root(seed);
  std::vector<la::Matrix> factors;
  factors.reserve(shape.size());
  for (std::size_t m = 0; m < shape.size(); ++m) {
    Rng rng = root.split(m + 1);
    la::Matrix a(shape[m], rank);
    a.fill_uniform(rng);
    factors.push_back(std::move(a));
  }
  return factors;
}

std::vector<la::Matrix> resolve_init_factors(const std::vector<index_t>& shape,
                                             index_t rank, std::uint64_t seed,
                                             const DriverHooks& hooks) {
  if (hooks.initial_factors == nullptr)
    return init_factors(shape, rank, seed);
  const auto& init = *hooks.initial_factors;
  PARPP_CHECK(init.size() == shape.size(),
              "warm start: need one factor per tensor mode");
  for (std::size_t m = 0; m < init.size(); ++m) {
    PARPP_CHECK(init[m].rows() == shape[m] && init[m].cols() == rank,
                "warm start: factor ", m, " shape mismatch");
  }
  return init;
}

FactorUpdate als_update() {
  return [](la::Matrix& a, const la::Matrix& gamma, const la::Matrix& m,
            Profile& profile) { a = update_factor(gamma, m, &profile); };
}

CpResult cp_als(const TensorProblem& problem, const CpOptions& options,
                const DriverHooks& hooks, const FactorUpdate& update,
                const char* phase) {
  const int n = problem.order();
  PARPP_CHECK(n >= 2, "cp_als: tensor order must be >= 2");
  PARPP_CHECK(options.rank >= 1, "cp_als: rank must be positive");

  CpResult result;
  Profile profile;
  result.factors =
      resolve_init_factors(problem.shape, options.rank, options.seed, hooks);
  auto& factors = result.factors;
  std::vector<la::Matrix> grams = all_grams(factors, &profile);

  auto engine = problem.make_engine(options.engine, factors, &profile,
                                    options.engine_options);

  const double t_sq = problem.squared_norm;
  WallTimer timer;
  double fit = 0.0, fit_old = -1.0;
  if (hooks.resume != nullptr) {
    fit = hooks.resume->fitness;
    fit_old = hooks.resume->prev_fitness;
  }
  int sweep = 0;
  SweepGuard guard(result, factors, grams);
  while (sweep < options.max_sweeps &&
         std::abs(fit - fit_old) > options.tol) {
    guard.snapshot(fit, fit_old, result.residual);
    la::Matrix gamma_last, m_last;
    for (int i = 0; i < n; ++i) {
      la::Matrix gamma = gamma_chain(grams, i, &profile);
      la::Matrix m = engine->mttkrp(i);
      update(factors[static_cast<std::size_t>(i)], gamma, m, profile);
      engine->notify_update(i);
      grams[static_cast<std::size_t>(i)] =
          la::gram(factors[static_cast<std::size_t>(i)], &profile);
      if (i == n - 1) {
        gamma_last = std::move(gamma);
        m_last = std::move(m);
      }
    }
    ++sweep;
    fit_old = fit;
    result.residual = relative_residual(
        t_sq, gamma_last, grams[static_cast<std::size_t>(n - 1)], m_last,
        factors[static_cast<std::size_t>(n - 1)]);
    fit = fitness_from_residual(result.residual);
    if (!guard.check_sweep(sweep, fit, fit_old, engine.get())) break;
    const SweepRecord rec{timer.seconds(), fit, phase};
    if (options.record_history) result.history.push_back(rec);
    if (hooks.checkpoint_every > 0 && hooks.on_checkpoint &&
        sweep % hooks.checkpoint_every == 0)
      hooks.on_checkpoint(factors, sweep, fit, fit_old);
    if (hooks.on_sweep && !hooks.on_sweep(rec, factors)) break;
  }

  result.fitness = fit;
  result.sweeps = sweep;
  result.num_als_sweeps = sweep;
  result.profile = profile;
  return result;
}

}  // namespace parpp::core
