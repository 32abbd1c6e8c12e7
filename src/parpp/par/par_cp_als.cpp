#include "parpp/par/par_cp_als.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/solve_update.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/par/elastic.hpp"
#include "parpp/util/timer.hpp"

namespace parpp::par {

void hals_update_rows(la::Matrix& a, const la::Matrix& m,
                      const la::Matrix& gamma, double eps_floor) {
  const index_t s = a.rows(), r = a.cols();
  ScopedProfile sp(Profile::thread_default(), Kernel::kSolve,
                   2.0 * static_cast<double>(s) * r * r);
  for (index_t j = 0; j < r; ++j) {
    const double gjj = std::max(gamma(j, j), eps_floor);
#pragma omp parallel for schedule(static) if (s > 4096)
    for (index_t i = 0; i < s; ++i) {
      double agij = 0.0;
      const double* arow = a.row(i);
      for (index_t k = 0; k < r; ++k) agij += arow[k] * gamma(k, j);
      a(i, j) = std::max(a(i, j) + (m(i, j) - agij) / gjj, 0.0);
    }
  }
}

bool rescue_zero_columns(mpsim::Comm& comm, dist::FactorDist& fd, int mode,
                         la::Matrix& s, double eps_floor) {
  bool any_zero = false;
  for (index_t j = 0; j < s.cols(); ++j)
    if (s(j, j) == 0.0) any_zero = true;
  // `s` is replicated (post All-Reduce), so every rank takes this branch
  // identically and the extra collective below stays matched.
  if (!any_zero) return false;
  la::Matrix& q = fd.q(mode);
  for (index_t j = 0; j < s.cols(); ++j) {
    if (s(j, j) != 0.0) continue;
    for (index_t r = 0; r < q.rows(); ++r)
      if (fd.q_row_global(mode, r) >= 0) q(r, j) = eps_floor;
  }
  s = la::gram(q);
  comm.allreduce_sum(s.data(), s.size(),
                     PARPP_COMM_TAG("gram-rescue-allreduce"));
  return true;
}

bool hooks_continue_collective(mpsim::Comm& comm,
                               const core::DriverHooks& hooks,
                               const core::SweepRecord& rec,
                               const std::vector<la::Matrix>& factors) {
  if (!hooks.on_sweep) return true;
  static const std::vector<la::Matrix> kNoFactors;
  double stop = 0.0;
  if (comm.rank() == 0 &&
      !hooks.on_sweep(rec, comm.size() == 1 ? factors : kNoFactors))
    stop = 1.0;
  comm.allreduce_sum(&stop, 1, PARPP_COMM_TAG("observer-stop-allreduce"));
  return stop == 0.0;
}

ParCpContext::ParCpContext(mpsim::Comm& comm, const dist::DistProblem& problem,
                           const ParOptions& options,
                           const std::vector<la::Matrix>* initial_factors)
    : comm_(comm),
      options_(options),
      n_(static_cast<int>(problem.global_shape().size())),
      grid_(comm, options.grid_dims),
      dist_(problem.make_block_dist(grid_)),
      local_(problem.make_local(dist_, grid_.coords())),
      fd_(grid_, dist_, options.base.rank) {
  // Deterministic global initialization so any grid reproduces the
  // 1-rank run bit-for-bit (each rank generates — or, for a warm
  // start, copies — the same matrices).
  core::DriverHooks init_hooks;
  init_hooks.initial_factors = initial_factors;
  const auto global_factors = core::resolve_init_factors(
      dist_.global_shape(), options_.base.rank, options_.base.seed,
      init_hooks);
  grams_.resize(static_cast<std::size_t>(n_));
  for (int m = 0; m < n_; ++m) {
    fd_.set_q_from_global(m, global_factors[static_cast<std::size_t>(m)]);
    la::Matrix s = la::gram(fd_.q(m));
    comm_.allreduce_sum(s.data(), s.size(),
                        PARPP_COMM_TAG("init-gram-allreduce"));
    grams_[static_cast<std::size_t>(m)] = std::move(s);
    fd_.gather_slice(m);
  }
  engine_ = local_->make_engine(options_.base.engine, fd_.slices(), nullptr,
                                options_.base.engine_options);

  double sq = local_->squared_norm();
  comm_.allreduce_sum(&sq, 1, PARPP_COMM_TAG("tensor-sqnorm-allreduce"));
  t_sq_ = sq;

  // Observed per-rank load balance (one setup-time collective; nnz() is -1
  // on every rank or on none, so the collective stays matched).
  if (local_->nnz() >= 0) {
    const double mine = static_cast<double>(local_->nnz());
    std::vector<double> all(static_cast<std::size_t>(comm_.size()));
    comm_.allgather(&mine, 1, all.data(),
                    PARPP_COMM_TAG("nnz-imbalance-allgather"));
    double total = 0.0, worst = 0.0;
    for (double v : all) {
      total += v;
      worst = std::max(worst, v);
    }
    const double mean = total / static_cast<double>(comm_.size());
    nnz_imbalance_ = mean > 0.0 ? worst / mean : 1.0;
  }

  // Baseline the thread-local solver stats so health words report only
  // deltas from this run (each simulated rank is its own thread, but the
  // thread may have touched solve_gram during setup).
  spd_seen_ = la::spd_stats();
}

void ParCpContext::enable_hals(double epsilon, int inner_iterations) {
  PARPP_CHECK(inner_iterations >= 1,
              "enable_hals: need at least one inner iteration");
  hals_ = true;
  hals_epsilon_ = epsilon;
  hals_inner_ = inner_iterations;
}

void ParCpContext::solve_and_propagate(int mode, const la::Matrix& m_q,
                                       const la::Matrix& gamma) {
  if (hals_) {
    // Nonnegative update: the Q rows are independent given Γ and their
    // MTTKRP rows, so the projected HALS passes need no communication
    // beyond the Gram/slice propagation below.
    la::Matrix& q = fd_.q(mode);
    for (int pass = 0; pass < hals_inner_; ++pass)
      hals_update_rows(q, m_q, gamma, hals_epsilon_);
    la::Matrix s = la::gram(q);
    comm_.allreduce_sum(s.data(), s.size(),
                        PARPP_COMM_TAG("hals-gram-allreduce"));
    rescue_zero_columns(comm_, fd_, mode, s, hals_epsilon_);
    grams_[static_cast<std::size_t>(mode)] = std::move(s);
    fd_.gather_slice(mode);
    engine_->notify_update(mode);
    return;
  }
  la::Matrix a_q;
  if (options_.solve == SolveMode::kDistributedRows) {
    a_q = core::update_factor(gamma, m_q);
  } else {
    // PLANC-style sequential solve: gather all Q rows, solve the full
    // system redundantly on every rank, keep our rows. Row-independent, so
    // the result matches the distributed path exactly; only the cost model
    // differs (extra All-Gather + replicated solve flops).
    const index_t rows_q = m_q.rows();
    la::Matrix m_full(rows_q * comm_.size(), m_q.cols());
    comm_.allgather(m_q.data(), m_q.size(), m_full.data(),
                    PARPP_COMM_TAG("planc-mttkrp-allgather"));
    la::Matrix a_full = core::update_factor(gamma, m_full);
    a_q = la::Matrix(rows_q, m_q.cols());
    std::copy(a_full.row(comm_.rank() * rows_q),
              a_full.row(comm_.rank() * rows_q) + a_q.size(), a_q.data());
  }
  fd_.q(mode) = std::move(a_q);
  la::Matrix s = la::gram(fd_.q(mode));
  comm_.allreduce_sum(s.data(), s.size(), PARPP_COMM_TAG("gram-allreduce"));
  grams_[static_cast<std::size_t>(mode)] = std::move(s);
  fd_.gather_slice(mode);
  engine_->notify_update(mode);
}

void ParCpContext::apply_pp_mttkrp(int mode, const la::Matrix& m_q) {
  la::Matrix gamma = core::gamma_chain(grams_, mode);
  if (mode == n_ - 1) {
    gamma_last_ = gamma;
    mq_last_ = m_q;
  }
  solve_and_propagate(mode, m_q, gamma);
}

void ParCpContext::update_mode(int mode) {
  la::Matrix gamma = core::gamma_chain(grams_, mode);
  la::Matrix m_local = engine_->mttkrp(mode);
  la::Matrix m_q = fd_.reduce_scatter(mode, m_local);
  if (mode == n_ - 1) {
    gamma_last_ = gamma;
    mq_last_ = m_q;
  }
  solve_and_propagate(mode, m_q, gamma);
}

double ParCpContext::reduce_with_health(double local_scalar) {
  // One All-Reduce carries the caller's scalar plus the health words — the
  // abort-agreement piggyback. 5 words total, below FaultPlan's
  // min_corrupt_words, so injected corruption can never desynchronize the
  // replicated verdict itself.
  double buf[5] = {local_scalar, 0.0, 0.0, 0.0, 0.0};
  bool nonfinite = !std::isfinite(local_scalar);
  for (int m = 0; m < n_ && !nonfinite; ++m) {
    if (!fd_.q(m).all_finite() ||
        !grams_[static_cast<std::size_t>(m)].all_finite())
      nonfinite = true;
  }
  buf[1] = nonfinite ? 1.0 : 0.0;
  const la::SpdStats now = la::spd_stats();
  buf[2] = static_cast<double>(
      (now.cholesky_failures - spd_seen_.cholesky_failures) +
      (now.nonfinite_grams - spd_seen_.nonfinite_grams));
  spd_seen_ = now;
  if (mpsim::FaultyComm* fault = comm_.fault()) {
    buf[3] = static_cast<double>(fault->take_delay_notices());
    buf[4] = static_cast<double>(fault->take_corruption_notices());
  }
  comm_.allreduce_sum(buf, 5, PARPP_COMM_TAG("residual-health-allreduce"));
  last_health_.nonfinite = buf[1];
  last_health_.guardrail = buf[2];
  last_health_.delays = buf[3];
  last_health_.corruptions = buf[4];
  return buf[0];
}

double ParCpContext::residual() {
  PARPP_CHECK(!mq_last_.empty(), "residual: no completed sweep");
  // <M(N), A(N)> — Q rows are disjoint across ranks, so a scalar All-Reduce
  // completes the inner product; <Γ, S> is replicated. The reduction also
  // carries the health words (see reduce_with_health).
  const double cross = reduce_with_health(mq_last_.dot(fd_.q(n_ - 1)));
  const double model_sq =
      gamma_last_.dot(grams_[static_cast<std::size_t>(n_ - 1)]);
  const double num_sq = std::max(0.0, t_sq_ + model_sq - 2.0 * cross);
  return t_sq_ > 0.0 ? std::sqrt(num_sq) / std::sqrt(t_sq_) : 0.0;
}

double ParCpContext::measure_residual() {
  const int last = n_ - 1;
  la::Matrix gamma = core::gamma_chain(grams_, last);
  la::Matrix m_local = engine_->mttkrp(last);
  la::Matrix m_q = fd_.reduce_scatter(last, m_local);
  const double cross = reduce_with_health(m_q.dot(fd_.q(last)));
  const double model_sq = gamma.dot(grams_[static_cast<std::size_t>(last)]);
  const double num_sq = std::max(0.0, t_sq_ + model_sq - 2.0 * cross);
  return t_sq_ > 0.0 ? std::sqrt(num_sq) / std::sqrt(t_sq_) : 0.0;
}

void ParCpContext::capture_state() {
  saved_fd_ = fd_.snapshot();
  saved_grams_ = grams_;
  saved_gamma_last_ = gamma_last_;
  saved_mq_last_ = mq_last_;
  have_snapshot_ = true;
}

void ParCpContext::restore_state() {
  PARPP_CHECK(have_snapshot_, "restore_state: no snapshot captured");
  fd_.restore(saved_fd_);
  grams_ = saved_grams_;
  gamma_last_ = saved_gamma_last_;
  mq_last_ = saved_mq_last_;
  for (int m = 0; m < n_; ++m) engine_->notify_update(m);
}

std::vector<la::Matrix> ParCpContext::assemble_factors() {
  std::vector<la::Matrix> out;
  out.reserve(static_cast<std::size_t>(n_));
  for (int m = 0; m < n_; ++m) out.push_back(assemble_factor(m));
  return out;
}

void record_health_events(ParResult& result, int sweep,
                          const ParCpContext::SweepHealth& h) {
  auto add = [&](const std::string& what) {
    result.recovery_log.push_back({sweep, what});
    if (result.status == core::SolveStatus::kOk)
      result.status = core::SolveStatus::kRecovered;
  };
  if (h.guardrail > 0.0) {
    add("Gram-solve guardrail fired " +
        std::to_string(static_cast<long>(h.guardrail)) + " time(s)");
  }
  if (h.delays > 0.0) {
    add("tolerated " + std::to_string(static_cast<long>(h.delays)) +
        " injected communication delay(s)");
  }
  if (h.corruptions > 0.0) {
    add("detected " + std::to_string(static_cast<long>(h.corruptions)) +
        " corrupted collective payload(s)");
  }
}

bool book_rollback(ParResult& result, int rank, int sweep, int& rollbacks) {
  if (rollbacks < kParRollbackBudget) {
    ++rollbacks;
    if (rank == 0) {
      result.recovery_log.push_back(
          {sweep, "non-finite iterate: rolled back to the last good sweep "
                  "(rollback " +
                      std::to_string(rollbacks) + "/" +
                      std::to_string(kParRollbackBudget) + ")"});
      if (result.status == core::SolveStatus::kOk)
        result.status = core::SolveStatus::kRecovered;
    }
    return true;
  }
  if (rank == 0) {
    result.recovery_log.push_back(
        {sweep, "non-finite iterate persisted past the rollback budget; "
                "aborting on the last good state"});
    result.status = core::SolveStatus::kNumericalAbort;
  }
  return false;
}

ParResult par_cp_als(const dist::DistProblem& problem, int nprocs,
                     const ParOptions& options,
                     const core::DriverHooks& hooks,
                     const core::NncpOptions* nn) {
  const char* phase = nn ? "nncp" : "als";
  ParResult result;
  run_sweep_loop(
      problem, nprocs, options, hooks, result,
      [&](ElasticAttempt& at, std::vector<Profile>& profiles, int& sweep) {
        mpsim::Comm& comm = at.comm;
        ParCpContext ctx(comm, problem, at.options, at.init_factors);
        at.begin_epoch(ctx);
        // MTTKRP + Reduce-Scatter exactly as Algorithm 3; HALS swaps the
        // factor update for the row-local projected passes (no extra
        // communication) and keeps the Eq. (3) residual, which depends on
        // M(N) and Γ(N) only.
        if (nn) ctx.enable_hals(nn->epsilon, nn->inner_iterations);
        const int n = ctx.order();
        WallTimer timer;
        double fit = at.fit, fit_old = at.fit_old;
        int rollbacks = 0;
        sweep = at.start_sweep;
        while (sweep < options.base.max_sweeps &&
               std::abs(fit - fit_old) > options.base.tol) {
          at.publish(ctx, sweep, fit, fit_old);
          ctx.capture_state();
          const double saved_fit = fit, saved_fit_old = fit_old;
          const Profile before = Profile::thread_default();
          for (int i = 0; i < n; ++i) ctx.update_mode(i);
          ++sweep;
          fit_old = fit;
          const double r = ctx.residual();
          fit = core::fitness_from_residual(r);
          profiles.push_back(Profile::thread_default().delta_since(before));
          const ParCpContext::SweepHealth h = ctx.last_health();
          if (comm.rank() == 0) record_health_events(result, sweep, h);
          if (h.nonfinite > 0.0 || !std::isfinite(fit)) {
            // Replicated verdict: every rank rolls back in lockstep to the
            // pre-sweep iterate. The sweep counter keeps advancing, so
            // termination stays bounded by max_sweeps.
            ctx.restore_state();
            fit = saved_fit;
            fit_old = saved_fit_old;
            if (book_rollback(result, comm.rank(), sweep, rollbacks))
              continue;
            break;
          }
          if (comm.rank() == 0) {
            if (options.base.record_history)
              result.history.push_back({timer.seconds(), fit, phase});
            result.residual = r;
            result.fitness = fit;
            result.sweeps = sweep;
            result.num_als_sweeps = sweep;
          }
          if (hooks.checkpoint_every > 0 && hooks.on_checkpoint &&
              sweep % hooks.checkpoint_every == 0) {
            // Collective assembly on the replicated sweep counter; only
            // rank 0 invokes the callback (and writes the file).
            const std::vector<la::Matrix> ck = ctx.assemble_factors();
            if (comm.rank() == 0) hooks.on_checkpoint(ck, sweep, fit, fit_old);
          }
          if (!hooks_continue_collective(comm, hooks,
                                         {timer.seconds(), fit, phase},
                                         ctx.factor_dist().slices()))
            break;
        }
        // Assemble global factors (collective); rank 0 keeps them.
        std::vector<la::Matrix> assembled = ctx.assemble_factors();
        if (comm.rank() == 0) result.factors = std::move(assembled);
      });
  return result;
}

}  // namespace parpp::par
