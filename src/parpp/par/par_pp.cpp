#include "parpp/par/par_pp.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "parpp/core/dim_tree.hpp"
#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/par/elastic.hpp"
#include "parpp/tensor/mttv.hpp"
#include "parpp/util/timer.hpp"

namespace parpp::par {

namespace {

/// Per-rank PP state layered over the Algorithm 3 context.
class LocalPp {
 public:
  /// `second_order` = false drops the V(n) correction (ablation).
  LocalPp(mpsim::Comm& comm, ParCpContext& ctx, bool second_order)
      : comm_(comm), ctx_(ctx), n_(ctx.order()), second_order_(second_order),
        ops_(ctx.local_problem().make_pp_operators(
            ctx.factor_dist().slices(), nullptr)) {}

  /// Algorithm 4 line 2: local PP initialization. The donor is the local
  /// regular-sweep tree engine (footnote-1 amortization applies per rank;
  /// sparse blocks have no tree cache and the cast yields null).
  void build() {
    const auto* donor =
        dynamic_cast<const core::TreeEngineBase*>(&ctx_.engine());
    ops_->build(donor);
    // Snapshot A_p in both layouts; dS starts at zero.
    a_p_slice_.clear();
    a_p_q_.clear();
    d_grams_.assign(static_cast<std::size_t>(n_), la::Matrix());
    for (int m = 0; m < n_; ++m) {
      a_p_slice_.push_back(ctx_.factor_dist().slice(m));
      a_p_q_.push_back(ctx_.factor_dist().q(m));
      d_grams_[static_cast<std::size_t>(m)] =
          la::Matrix(ctx_.grams()[static_cast<std::size_t>(m)].rows(),
                     ctx_.grams()[static_cast<std::size_t>(m)].cols());
    }
  }

  /// dS(i) = A(i)^T dA(i) from Q rows + one R^2 All-Reduce.
  void refresh_dgram(int i) {
    const auto& q = ctx_.factor_dist().q(i);
    la::Matrix dq = q;
    dq.axpy(-1.0, a_p_q_[static_cast<std::size_t>(i)]);
    la::Matrix ds = la::matmul(q, dq, la::Trans::kYes);
    comm_.allreduce_sum(ds.data(), ds.size(),
                        PARPP_COMM_TAG("pp-dgram-allreduce"));
    d_grams_[static_cast<std::size_t>(i)] = std::move(ds);
  }

  /// Local ~M(n) before reduction: M_p(n)_loc + sum_i U(n,i)_loc
  /// (Algorithm 4 lines 5-8). The V(n) term is added after the
  /// Reduce-Scatter by the caller (line 10-11) via second_order_term().
  [[nodiscard]] la::Matrix local_correction(int n) const {
    la::Matrix m = ops_->mttkrp_p(n);
    for (int i = 0; i < n_; ++i) {
      if (i == n) continue;
      const auto& op = ops_->pair_op(std::min(n, i), std::max(n, i));
      const auto it = std::find(op.modes.begin(), op.modes.end(), i);
      const int pos = static_cast<int>(it - op.modes.begin());
      la::Matrix d_slice = ctx_.factor_dist().slice(i);
      d_slice.axpy(-1.0, a_p_slice_[static_cast<std::size_t>(i)]);
      tensor::DenseTensor u = tensor::mttv(op.data, pos, d_slice);
      const double* ud = u.data();
      double* md = m.data();
      for (index_t x = 0; x < m.size(); ++x) md[x] += ud[x];
    }
    return m;
  }

  /// V(n) = A(n) W with the Hadamard chain of Eq. (7) over global dS / S;
  /// applied to the Q rows after the Reduce-Scatter.
  [[nodiscard]] la::Matrix second_order_term(int n) const {
    const auto& grams = ctx_.grams();
    const index_t r = grams[0].rows();
    la::Matrix w(r, r);
    for (int i = 0; i < n_; ++i) {
      if (i == n) continue;
      for (int j = i + 1; j < n_; ++j) {
        if (j == n) continue;
        la::Matrix term = la::hadamard(d_grams_[static_cast<std::size_t>(i)],
                                       d_grams_[static_cast<std::size_t>(j)]);
        for (int k = 0; k < n_; ++k) {
          if (k == i || k == j || k == n) continue;
          term.hadamard_inplace(grams[static_cast<std::size_t>(k)]);
        }
        w.axpy(1.0, term);
      }
    }
    return la::matmul(ctx_.factor_dist().q(n), w);
  }

  /// Relative factor changes ||dA(i)||/||A(i)|| vs the snapshot, global
  /// (one All-Reduce of 2N scalars).
  [[nodiscard]] std::vector<double> relative_changes() const {
    std::vector<double> sq(static_cast<std::size_t>(2 * n_), 0.0);
    for (int i = 0; i < n_; ++i) {
      const auto& q = ctx_.factor_dist().q(i);
      la::Matrix dq = q;
      dq.axpy(-1.0, a_p_q_[static_cast<std::size_t>(i)]);
      const double fa = q.frobenius_norm();
      const double fd = dq.frobenius_norm();
      sq[static_cast<std::size_t>(i)] = fd * fd;
      sq[static_cast<std::size_t>(n_ + i)] = fa * fa;
    }
    comm_.allreduce_sum(sq.data(), static_cast<index_t>(sq.size()),
                        PARPP_COMM_TAG("pp-drift-allreduce"));
    std::vector<double> rel(static_cast<std::size_t>(n_));
    for (int i = 0; i < n_; ++i) {
      const double fa = std::sqrt(sq[static_cast<std::size_t>(n_ + i)]);
      rel[static_cast<std::size_t>(i)] =
          fa > 0.0 ? std::sqrt(sq[static_cast<std::size_t>(i)]) / fa : 0.0;
    }
    return rel;
  }

  /// One full PP-approximated sweep (Algorithm 4 lines 4-16).
  void approx_sweep() {
    for (int j = 0; j < n_; ++j) {
      la::Matrix m_local = local_correction(j);
      la::Matrix m_q = ctx_.factor_dist().reduce_scatter(j, m_local);
      if (second_order_) m_q.axpy(1.0, second_order_term(j));
      ctx_.apply_pp_mttkrp(j, m_q);
      refresh_dgram(j);
    }
  }

 private:
  mpsim::Comm& comm_;
  ParCpContext& ctx_;
  int n_;
  bool second_order_;
  std::unique_ptr<core::PpOperators> ops_;
  std::vector<la::Matrix> a_p_slice_, a_p_q_;
  std::vector<la::Matrix> d_grams_;
};

bool all_below(const std::vector<double>& rel, double eps) {
  for (double v : rel)
    if (v >= eps) return false;
  return true;
}

}  // namespace

ParResult par_pp_cp_als(const dist::DistProblem& problem, int nprocs,
                        const ParOptions& options,
                        const core::PpOptions& pp_opt,
                        const core::DriverHooks& hooks,
                        const core::NncpOptions* nn) {
  const char* regular_phase = nn ? "nncp" : "als";
  ParResult result;
  run_sweep_loop(
      problem, nprocs, options, hooks, result,
      [&](ElasticAttempt& at, std::vector<Profile>& profiles, int& total) {
        mpsim::Comm& comm = at.comm;
        ParCpContext ctx(comm, problem, at.options, at.init_factors);
        at.begin_epoch(ctx);
        if (nn) ctx.enable_hals(nn->epsilon, nn->inner_iterations);
        const int n = ctx.order();
        LocalPp pp(comm, ctx, pp_opt.second_order);
        WallTimer timer;

        // dA across the latest regular sweep; seeded large so regular
        // sweeps run first (also after a shrink: the rebuilt epoch re-earns
        // PP eligibility with an exact sweep before approximating again).
        std::vector<la::Matrix> prev_q;
        for (int m = 0; m < n; ++m)
          prev_q.emplace_back(ctx.factor_dist().q(m).rows(),
                              ctx.factor_dist().q(m).cols());

        auto sweep_changes = [&] {
          std::vector<double> sq(static_cast<std::size_t>(2 * n), 0.0);
          for (int i = 0; i < n; ++i) {
            const auto& q = ctx.factor_dist().q(i);
            la::Matrix dq = q;
            dq.axpy(-1.0, prev_q[static_cast<std::size_t>(i)]);
            sq[static_cast<std::size_t>(i)] = std::pow(dq.frobenius_norm(), 2);
            sq[static_cast<std::size_t>(n + i)] =
                std::pow(q.frobenius_norm(), 2);
          }
          comm.allreduce_sum(sq.data(), static_cast<index_t>(sq.size()),
                             PARPP_COMM_TAG("ppbench-drift-allreduce"));
          std::vector<double> rel(static_cast<std::size_t>(n));
          for (int i = 0; i < n; ++i) {
            const double fa = std::sqrt(sq[static_cast<std::size_t>(n + i)]);
            rel[static_cast<std::size_t>(i)] =
                fa > 0.0 ? std::sqrt(sq[static_cast<std::size_t>(i)]) / fa
                         : 0.0;
          }
          return rel;
        };

        double fit = at.fit, fit_old = at.fit_old;
        total = at.start_sweep;
        int last_checkpoint = at.start_sweep;
        int rollbacks = 0;
        bool have_sweep = false;
        bool aborted = false;
        auto sweep_hook = [&](const char* phase, double f) {
          if (!hooks_continue_collective(comm, hooks,
                                         {timer.seconds(), f, phase},
                                         ctx.factor_dist().slices()))
            aborted = true;
          return !aborted;
        };
        while (!aborted && total < options.base.max_sweeps &&
               std::abs(fit - fit_old) > options.base.tol) {
          if (have_sweep && all_below(sweep_changes(), pp_opt.pp_tol)) {
            // ---- PP phase -----------------------------------------
            const Profile before_init = Profile::thread_default();
            // Trust-guard snapshot: the whole phase is discarded back to
            // this iterate if an approximated sweep regresses the fitness
            // or goes non-finite.
            at.publish(ctx, total, fit, fit_old);
            ctx.capture_state();
            const double fit_p = fit;
            pp.build();
            ++total;
            profiles.push_back(
                Profile::thread_default().delta_since(before_init));
            if (comm.rank() == 0) {
              ++result.num_pp_init;
              if (options.base.record_history)
                result.history.push_back({timer.seconds(), fit, "pp-init"});
            }
            if (!sweep_hook("pp-init", fit)) break;
            int pp_sweeps = 0;
            bool discarded = false;
            double pp_fit = fit, pp_fit_old = fit - 1.0;
            // Trust-guard floor: the PP model can break down when Γ is
            // rank-deficient (e.g. CP rank above a mode extent), so a phase
            // whose approximate fitness drops below this floor is
            // discarded.
            const double fit_floor =
                fit - 10.0 * std::max(options.base.tol, 1e-6);
            while (all_below(pp.relative_changes(), pp_opt.pp_tol) &&
                   std::abs(pp_fit - pp_fit_old) > options.base.tol &&
                   pp_sweeps < pp_opt.max_pp_sweeps_per_phase &&
                   total < options.base.max_sweeps) {
              const Profile before = Profile::thread_default();
              pp.approx_sweep();
              ++pp_sweeps;
              ++total;
              if (comm.rank() == 0) ++result.num_pp_approx;
              profiles.push_back(
                  Profile::thread_default().delta_since(before));
              // Approximate fitness: cheap and close to exact while the PP
              // condition holds. It is also the inner stopping criterion —
              // the paper stops on the fitness difference of neighbouring
              // sweeps, which must apply inside the PP phase too or a
              // converged run would spin until max_sweeps.
              const double r = ctx.residual();
              pp_fit_old = pp_fit;
              pp_fit = core::fitness_from_residual(r);
              const ParCpContext::SweepHealth h = ctx.last_health();
              if (comm.rank() == 0) record_health_events(result, total, h);
              if (h.nonfinite > 0.0 || !std::isfinite(pp_fit) ||
                  pp_fit < fit_floor) {
                // Replicated verdict: discard the approximated phase on
                // every rank, fall back to exact sweeps; pair operators
                // are rebuilt at the next phase entry.
                ctx.restore_state();
                discarded = true;
                if (comm.rank() == 0) {
                  result.recovery_log.push_back(
                      {total, "PP trust guard: approximated sweep regressed "
                              "or went non-finite; discarded the PP phase "
                              "and resumed exact sweeps"});
                  if (result.status == core::SolveStatus::kOk)
                    result.status = core::SolveStatus::kRecovered;
                }
                break;
              }
              if (comm.rank() == 0 && options.base.record_history)
                result.history.push_back(
                    {timer.seconds(), pp_fit, "pp-approx"});
              if (!sweep_hook("pp-approx", pp_fit)) break;
            }
            // Carry PP progress into the outer stopping comparison, or
            // the next regular sweep is compared against a fitness from
            // before the whole phase and the loop re-initializes forever.
            // A discarded phase keeps the entry fitness — its sweeps were
            // reverted.
            if (discarded)
              fit = fit_p;
            else if (pp_sweeps > 0)
              fit = pp_fit;
          }
          if (aborted || total >= options.base.max_sweeps) break;

          // ---- Regular sweep ---------------------------------------
          at.publish(ctx, total, fit, fit_old);
          ctx.capture_state();
          const double saved_fit = fit, saved_fit_old = fit_old;
          for (int m = 0; m < n; ++m)
            prev_q[static_cast<std::size_t>(m)] = ctx.factor_dist().q(m);
          const Profile before = Profile::thread_default();
          for (int i = 0; i < n; ++i) ctx.update_mode(i);
          ++total;
          if (comm.rank() == 0) ++result.num_als_sweeps;
          have_sweep = true;
          profiles.push_back(Profile::thread_default().delta_since(before));
          fit_old = fit;
          const double r = ctx.residual();
          fit = core::fitness_from_residual(r);
          const ParCpContext::SweepHealth h = ctx.last_health();
          if (comm.rank() == 0) record_health_events(result, total, h);
          if (h.nonfinite > 0.0 || !std::isfinite(fit)) {
            ctx.restore_state();
            fit = saved_fit;
            fit_old = saved_fit_old;
            have_sweep = false;  // changes vs prev_q are no longer valid
            if (book_rollback(result, comm.rank(), total, rollbacks))
              continue;
            break;
          }
          if (comm.rank() == 0) {
            result.residual = r;
            result.fitness = fit;
            result.sweeps = total;
            if (options.base.record_history)
              result.history.push_back({timer.seconds(), fit, regular_phase});
          }
          // Checkpoints land after regular (exact) sweeps only, so the
          // saved factors are never mid-approximation.
          if (hooks.checkpoint_every > 0 && hooks.on_checkpoint &&
              total - last_checkpoint >= hooks.checkpoint_every) {
            const std::vector<la::Matrix> ck = ctx.assemble_factors();
            if (comm.rank() == 0) hooks.on_checkpoint(ck, total, fit, fit_old);
            last_checkpoint = total;
          }
          if (!sweep_hook(regular_phase, fit)) break;
        }
        // Final exact residual at the current factors (the loop may exit
        // mid-PP-phase, leaving the stored residual stale).
        const double r_final = ctx.measure_residual();
        std::vector<la::Matrix> assembled = ctx.assemble_factors();
        if (comm.rank() == 0) {
          result.factors = std::move(assembled);
          result.sweeps = total;
          result.residual = r_final;
          result.fitness = core::fitness_from_residual(r_final);
        }
      });
  return result;
}

PpKernelTimings time_pp_kernels(const tensor::DenseTensor& global_t,
                                int nprocs, const ParOptions& options,
                                int sweeps) {
  PpKernelTimings out;
  std::vector<double> init_secs(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<double> approx_secs(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<Profile> init_prof(static_cast<std::size_t>(nprocs));
  std::vector<Profile> approx_prof(static_cast<std::size_t>(nprocs));

  const dist::DenseBlockProblem problem(global_t);
  mpsim::RunOptions ropt;
  ropt.threads_per_rank = options.threads_per_rank;
  auto run_result = mpsim::run(
      nprocs,
      [&](mpsim::Comm& comm) {
        ParCpContext ctx(comm, problem, options);
        const int n = ctx.order();
        // One regular sweep to warm the tree cache (donor amortization).
        for (int i = 0; i < n; ++i) ctx.update_mode(i);

        LocalPp pp(comm, ctx, /*second_order=*/true);
        const auto r = static_cast<std::size_t>(comm.rank());
        {
          WallTimer t;
          const Profile before = Profile::thread_default();
          pp.build();
          comm.barrier(PARPP_COMM_TAG("ppbench-init-barrier"));
          init_secs[r] = t.seconds();
          init_prof[r] = Profile::thread_default().delta_since(before);
        }
        {
          WallTimer t;
          const Profile before = Profile::thread_default();
          for (int s = 0; s < sweeps; ++s) pp.approx_sweep();
          comm.barrier(PARPP_COMM_TAG("ppbench-sweep-barrier"));
          approx_secs[r] = t.seconds() / std::max(1, sweeps);
          approx_prof[r] = Profile::thread_default().delta_since(before);
        }
      },
      ropt);

  for (int r = 0; r < nprocs; ++r) {
    out.init_seconds = std::max(out.init_seconds, init_secs[static_cast<std::size_t>(r)]);
    out.approx_sweep_seconds =
        std::max(out.approx_sweep_seconds, approx_secs[static_cast<std::size_t>(r)]);
  }
  out.init_profile = init_prof.empty() ? Profile{} : init_prof[0];
  out.approx_profile = approx_prof.empty() ? Profile{} : approx_prof[0];
  out.comm_cost = run_result.max_cost();
  return out;
}

}  // namespace parpp::par
