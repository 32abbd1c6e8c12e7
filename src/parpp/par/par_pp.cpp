#include "parpp/par/par_pp.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

#include "parpp/core/dim_tree.hpp"
#include "parpp/core/fitness.hpp"
#include "parpp/core/gram.hpp"
#include "parpp/core/pp_engine.hpp"
#include "parpp/core/pp_operators.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/par/elastic.hpp"
#include "parpp/solver/spec.hpp"
#include "parpp/tensor/mttv.hpp"
#include "parpp/util/rng.hpp"
#include "parpp/util/serialize.hpp"

namespace parpp::par {

namespace {

/// Per-rank PP state layered over the Algorithm 3 context.
class LocalPp final : public PpKernels {
 public:
  /// `second_order` = false drops the V(n) correction (ablation).
  LocalPp(mpsim::Comm& comm, ParCpContext& ctx, bool second_order)
      : comm_(comm), ctx_(ctx), n_(ctx.order()), second_order_(second_order),
        ops_(ctx.local_problem().make_pp_operators(
            ctx.factor_dist().slices(), nullptr)) {}

  /// Algorithm 4 line 2: local PP initialization. The donor is the local
  /// regular-sweep tree engine (footnote-1 amortization applies per rank;
  /// sparse blocks have no tree cache and the cast yields null).
  void build() override {
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
  void approx_sweep() override {
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

/// Sweep-rollback budget of the health guard.
constexpr int kRollbackBudget = 3;

/// Rank-0 bookkeeping of a replicated health verdict: folds tolerated
/// events (guardrail fires, injected delays/corruptions) into the recovery
/// log and upgrades kOk to kRecovered.
void record_health_events(solver::SolveReport& report, int sweep,
                          const ParCpContext::SweepHealth& h) {
  auto add = [&](const std::string& what) {
    report.recovery_log.push_back({sweep, what});
    if (report.status == core::SolveStatus::kOk)
      report.status = core::SolveStatus::kRecovered;
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

/// Books a replicated non-finite verdict after the caller restored the
/// pre-sweep iterate on every rank: within kRollbackBudget it counts a
/// rollback and returns true (retry); past the budget it records the
/// numerical abort and returns false. Rank 0 writes the log.
bool book_rollback(solver::SolveReport& report, int rank, int sweep,
                   int& rollbacks) {
  if (rollbacks < kRollbackBudget) {
    ++rollbacks;
    if (rank == 0) {
      report.recovery_log.push_back(
          {sweep, "non-finite iterate: rolled back to the last good sweep "
                  "(rollback " +
                      std::to_string(rollbacks) + "/" +
                      std::to_string(kRollbackBudget) + ")"});
      if (report.status == core::SolveStatus::kOk)
        report.status = core::SolveStatus::kRecovered;
    }
    return true;
  }
  if (rank == 0) {
    report.recovery_log.push_back(
        {sweep, "non-finite iterate persisted past the rollback budget; "
                "aborting on the last good state"});
    report.status = core::SolveStatus::kNumericalAbort;
  }
  return false;
}

}  // namespace

solver::SolveReport run_cp_als(const dist::DistProblem& problem,
                               const solver::SolverSpec& spec,
                               const SolveStart& start) {
  const bool pp_on = solver::uses_pp(spec.method);
  const core::NncpOptions* nn =
      solver::uses_hals(spec.method) ? &spec.nncp : nullptr;
  const char* regular_phase = nn ? "nncp" : "als";
  const double tol = spec.stopping.fitness_tol;
  const int max_sweeps = spec.stopping.max_sweeps;
  const bool watched = spec.stopping.max_seconds > 0.0 ||
                       static_cast<bool>(spec.stopping.predicate) ||
                       static_cast<bool>(spec.observer);
  solver::SolveReport report;
  run_sweep_loop(
      problem, spec, start, report,
      [&](ElasticAttempt& at, std::vector<Profile>& profiles, LoopState& s) {
        mpsim::Comm& comm = at.comm;
        const bool rank0 = comm.rank() == 0;
        ParCpContext ctx(comm, problem, spec, at.grid_dims, at.init_factors);
        at.begin_epoch(ctx);
        // HALS swaps the factor update for the row-local projected passes
        // (no extra communication) and keeps the Eq. (3) residual, which
        // depends on M(N) and Γ(N) only.
        if (nn) ctx.enable_hals(nn->epsilon, nn->inner_iterations);
        const int n = ctx.order();
        std::optional<LocalPp> pp;
        if (pp_on) pp.emplace(comm, ctx, spec.pp.second_order);
        WallTimer timer;

        // dA across the latest regular sweep; seeded large so regular
        // sweeps run first (also after a shrink: the rebuilt epoch re-earns
        // PP eligibility with an exact sweep before approximating again).
        std::vector<la::Matrix> prev_q;
        if (pp_on)
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

        // The stop reason: whether the last fitness pair compared was
        // within tol, and whether the budget, predicate or observer ended
        // the run (rank 0 then holds the reason in the report).
        bool settled = false;
        bool stopped = false;
        auto moving = [&](double f, double f_old) {
          settled = !(std::abs(f - f_old) > tol);
          return !settled;
        };
        // Counts one sweep of a kind on every rank (the counts ride in the
        // buddy snapshots); rank 0 mirrors them into the report.
        auto count = [&](int& kind) {
          ++s.sweep;
          ++kind;
          if (rank0) {
            report.num_als_sweeps = s.num_als;
            report.num_pp_init = s.num_pp_init;
            report.num_pp_approx = s.num_pp_approx;
          }
        };
        auto record = [&](const char* phase, double f) {
          const core::SweepRecord rec{timer.seconds(), f, phase};
          ++s.records;
          if (rank0) {
            if (spec.record_history) report.history.push_back(rec);
            report.mean_sweep_seconds = rec.seconds / s.sweep;
          }
          return rec;
        };
        // The time budget, the predicate and the observer: rank 0 decides
        // and one All-Reduce shares the verdict, so every rank stops on the
        // same sweep; no collective when none is set. The observer sees the
        // factors on a 1-rank run and an empty view otherwise (the factors
        // live distributed).
        const std::vector<la::Matrix> no_factors;
        auto keep_going = [&](const core::SweepRecord& rec) {
          if (!watched) return true;
          double stop = 0.0;
          if (rank0) {
            stop = 1.0;
            if (spec.stopping.max_seconds > 0.0 &&
                start.budget.seconds() >= spec.stopping.max_seconds)
              report.stop_reason = solver::StopReason::kTimeBudget;
            else if (spec.stopping.predicate && spec.stopping.predicate(rec))
              report.stop_reason = solver::StopReason::kPredicate;
            else if (spec.observer &&
                     spec.observer(rec, comm.size() == 1
                                            ? ctx.factor_dist().slices()
                                            : no_factors) ==
                         solver::ObserverAction::kStop)
              report.stop_reason = solver::StopReason::kObserver;
            else
              stop = 0.0;
          }
          comm.allreduce_sum(&stop, 1,
                             PARPP_COMM_TAG("observer-stop-allreduce"));
          stopped = stop != 0.0;
          return !stopped;
        };

        s = at.start;
        int last_checkpoint = s.sweep;
        int rollbacks = 0;
        bool have_sweep = false;
        while (!stopped && moving(s.fit, s.fit_old) && s.sweep < max_sweeps) {
          if (pp && have_sweep && all_below(sweep_changes(), spec.pp.pp_tol)) {
            // ---- PP phase -----------------------------------------
            const Profile before_init = Profile::thread_default();
            // Trust-guard snapshot: the whole phase is discarded back to
            // this iterate if an approximated sweep regresses the fitness
            // or goes non-finite.
            at.publish(ctx, s);
            ctx.capture_state();
            const double fit_p = s.fit;
            pp->build();
            count(s.num_pp_init);
            profiles.push_back(
                Profile::thread_default().delta_since(before_init));
            if (!keep_going(record("pp-init", s.fit))) break;
            int pp_sweeps = 0;
            bool discarded = false;
            double pp_fit = s.fit, pp_fit_old = s.fit - 1.0;
            // Trust-guard floor: the PP model can break down when Γ is
            // rank-deficient (e.g. CP rank above a mode extent), so a phase
            // whose approximate fitness drops below this floor is
            // discarded.
            const double fit_floor = s.fit - 10.0 * std::max(tol, 1e-6);
            for (;;) {
              // Both tests run on every pass: the drift All-Reduce keeps
              // its place in the collective sequence, and the fitness pair
              // is compared even when the sweep budget ends the phase.
              const bool near =
                  all_below(pp->relative_changes(), spec.pp.pp_tol);
              const bool pp_moving = moving(pp_fit, pp_fit_old);
              if (!near || !pp_moving ||
                  pp_sweeps >= spec.pp.max_pp_sweeps_per_phase ||
                  s.sweep >= max_sweeps)
                break;
              const Profile before = Profile::thread_default();
              pp->approx_sweep();
              ++pp_sweeps;
              count(s.num_pp_approx);
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
              if (rank0) record_health_events(report, s.sweep, h);
              if (h.nonfinite > 0.0 || !std::isfinite(pp_fit) ||
                  pp_fit < fit_floor) {
                // Replicated verdict: discard the approximated phase on
                // every rank, fall back to exact sweeps; pair operators
                // are rebuilt at the next phase entry.
                ctx.restore_state();
                discarded = true;
                if (rank0) {
                  report.recovery_log.push_back(
                      {s.sweep, "PP trust guard: approximated sweep "
                                "regressed or went non-finite; discarded "
                                "the PP phase and resumed exact sweeps"});
                  if (report.status == core::SolveStatus::kOk)
                    report.status = core::SolveStatus::kRecovered;
                }
                break;
              }
              if (!keep_going(record("pp-approx", pp_fit))) break;
            }
            // Carry PP progress into the outer stopping comparison, or
            // the next regular sweep is compared against a fitness from
            // before the whole phase and the loop re-initializes forever.
            // A discarded phase keeps the entry fitness — its sweeps were
            // reverted.
            if (discarded)
              s.fit = fit_p;
            else if (pp_sweeps > 0)
              s.fit = pp_fit;
          }
          if (stopped || s.sweep >= max_sweeps) break;

          // ---- Regular sweep (Algorithm 3) -----------------------------
          at.publish(ctx, s);
          ctx.capture_state();
          const double saved_fit = s.fit, saved_fit_old = s.fit_old;
          for (std::size_t m = 0; m < prev_q.size(); ++m)
            prev_q[m] = ctx.factor_dist().q(static_cast<int>(m));
          const Profile before = Profile::thread_default();
          for (int i = 0; i < n; ++i) ctx.update_mode(i);
          count(s.num_als);
          have_sweep = true;
          profiles.push_back(Profile::thread_default().delta_since(before));
          s.fit_old = s.fit;
          const double r = ctx.residual();
          s.fit = core::fitness_from_residual(r);
          const ParCpContext::SweepHealth h = ctx.last_health();
          if (rank0) record_health_events(report, s.sweep, h);
          if (h.nonfinite > 0.0 || !std::isfinite(s.fit)) {
            // Replicated verdict: every rank rolls back in lockstep to the
            // pre-sweep iterate. The sweep counter keeps advancing, so
            // termination stays bounded by max_sweeps.
            ctx.restore_state();
            s.fit = saved_fit;
            s.fit_old = saved_fit_old;
            have_sweep = false;  // changes vs prev_q are no longer valid
            if (book_rollback(report, comm.rank(), s.sweep, rollbacks))
              continue;
            break;
          }
          if (rank0) {
            report.residual = r;
            report.fitness = s.fit;
            report.sweeps = s.sweep;
          }
          const core::SweepRecord rec = record(regular_phase, s.fit);
          // Checkpoints land after regular (exact) sweeps only, so the
          // saved factors are never mid-approximation. The assembly is
          // collective on the replicated sweep counter; rank 0 writes.
          if (spec.checkpoint.saving() &&
              s.sweep - last_checkpoint >= spec.checkpoint.every) {
            std::vector<la::Matrix> factors = ctx.assemble_factors();
            if (rank0) {
              io::CheckpointState ck;
              ck.factors = std::move(factors);
              ck.sweep = start.sweep_offset + s.sweep;
              ck.fitness = s.fit;
              ck.prev_fitness = s.fit_old;
              ck.residual = 1.0 - s.fit;
              ck.seed = spec.seed;
              ck.rng_state = Rng(spec.seed).state();
              ck.written_ranks = spec.execution.nprocs;
              io::save_checkpoint_file(spec.checkpoint.path, ck);
            }
            last_checkpoint = s.sweep;
          }
          if (!keep_going(rec)) break;
        }
        // PP re-measures the exact residual at the current factors (the
        // loop may exit mid-phase, leaving the stored residual stale);
        // ALS and NNCP keep the residual of their last sweep.
        const double r_final = pp ? ctx.measure_residual() : 0.0;
        std::vector<la::Matrix> assembled = ctx.assemble_factors();
        if (rank0) {
          report.factors = std::move(assembled);
          report.sweeps = s.sweep;
          if (pp) {
            report.residual = r_final;
            report.fitness = core::fitness_from_residual(r_final);
          }
          if (!stopped)
            report.stop_reason = settled ? solver::StopReason::kConverged
                                         : solver::StopReason::kMaxSweeps;
        }
      });
  return report;
}

PpKernelTimings time_kernels(
    const tensor::DenseTensor& global_t, const solver::SolverSpec& spec,
    int sweeps,
    const std::function<std::unique_ptr<PpKernels>(mpsim::Comm&,
                                                   ParCpContext&)>& make) {
  const int nprocs = spec.execution.nprocs;
  PpKernelTimings out;
  std::vector<double> init_secs(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<double> approx_secs(static_cast<std::size_t>(nprocs), 0.0);
  std::vector<Profile> init_prof(static_cast<std::size_t>(nprocs));
  std::vector<Profile> approx_prof(static_cast<std::size_t>(nprocs));

  const dist::DenseBlockProblem problem(global_t);
  mpsim::RunOptions ropt;
  ropt.threads_per_rank = spec.execution.threads_per_rank;
  auto run_result = mpsim::run(
      nprocs,
      [&](mpsim::Comm& comm) {
        ParCpContext ctx(comm, problem, spec, spec.execution.grid_dims);
        const int n = ctx.order();
        // One regular sweep to warm the tree cache (donor amortization).
        for (int i = 0; i < n; ++i) ctx.update_mode(i);

        const std::unique_ptr<PpKernels> pp = make(comm, ctx);
        const auto r = static_cast<std::size_t>(comm.rank());
        {
          WallTimer t;
          const Profile before = Profile::thread_default();
          pp->build();
          comm.barrier(PARPP_COMM_TAG("ppbench-init-barrier"));
          init_secs[r] = t.seconds();
          init_prof[r] = Profile::thread_default().delta_since(before);
        }
        {
          WallTimer t;
          const Profile before = Profile::thread_default();
          for (int s = 0; s < sweeps; ++s) pp->approx_sweep();
          comm.barrier(PARPP_COMM_TAG("ppbench-sweep-barrier"));
          approx_secs[r] = t.seconds() / std::max(1, sweeps);
          approx_prof[r] = Profile::thread_default().delta_since(before);
        }
      },
      ropt);

  for (int r = 0; r < nprocs; ++r) {
    out.init_seconds =
        std::max(out.init_seconds, init_secs[static_cast<std::size_t>(r)]);
    out.approx_sweep_seconds = std::max(
        out.approx_sweep_seconds, approx_secs[static_cast<std::size_t>(r)]);
  }
  out.init_profile = init_prof.empty() ? Profile{} : init_prof[0];
  out.approx_profile = approx_prof.empty() ? Profile{} : approx_prof[0];
  out.comm_cost = run_result.max_cost();
  return out;
}

PpKernelTimings time_pp_kernels(const tensor::DenseTensor& global_t,
                                const solver::SolverSpec& spec, int sweeps) {
  return time_kernels(global_t, spec, sweeps,
                      [](mpsim::Comm& comm, ParCpContext& ctx) {
                        return std::make_unique<LocalPp>(
                            comm, ctx, /*second_order=*/true);
                      });
}

}  // namespace parpp::par
