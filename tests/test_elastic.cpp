// Elastic shrink-and-continue: a rank lost mid-solve must not end the run
// when --elastic shrink is on. The survivors agree on the live set, rebuild
// a smaller communicator (with the collective verifier re-registered),
// repartition the tensor, restore the iterate from the buddy-replicated
// snapshot, and finish with the fitness the uninterrupted run reaches —
// deterministically, so same-seed reruns produce bitwise-identical reports.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "parpp/data/sparse_synthetic.hpp"
#include "parpp/solver/solver.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "test_util.hpp"

namespace parpp {
namespace {

constexpr int kRanks = 8;

[[nodiscard]] const tensor::DenseTensor& dense_input() {
  static const tensor::DenseTensor t = test::low_rank_tensor({18, 16, 14}, 4, 33);
  return t;
}

[[nodiscard]] const tensor::CsfTensor& sparse_input() {
  static const tensor::CsfTensor t(
      data::make_sparse_lowrank({18, 16, 14}, 4, 0.2, 34).tensor);
  return t;
}

/// A parallel spec that keeps sweeping (tiny tol) so the fault lands
/// mid-solve, with elastic shrink enabled.
[[nodiscard]] solver::SolverSpec elastic_spec(solver::Method method,
                                              bool sparse) {
  solver::SolverSpec spec;
  spec.method = method;
  spec.rank = 4;
  spec.seed = 7;
  spec.stopping.max_sweeps = 10;
  spec.stopping.fitness_tol = 1e-14;
  if (sparse) spec.engine = core::EngineKind::kSparse;
  spec.execution = solver::Execution::simulated_parallel(kRanks);
  spec.execution.comm_timeout_seconds = 0.4;
  spec.execution.elastic.mode = par::ElasticMode::kShrink;
  return spec;
}

void add_rank_abort(solver::SolverSpec& spec, int rank, int nth) {
  if (spec.execution.fault.kind == mpsim::FaultKind::kNone) {
    spec.execution.fault.kind = mpsim::FaultKind::kRankAbort;
    spec.execution.fault.rank = rank;
    spec.execution.fault.nth = nth;
    spec.execution.fault.seed = spec.seed;
  } else {
    mpsim::FaultEvent ev;
    ev.kind = mpsim::FaultKind::kRankAbort;
    ev.rank = rank;
    ev.nth = nth;
    spec.execution.fault.then.push_back(ev);
  }
}

void expect_identical_reports(const solver::SolveReport& a,
                              const solver::SolveReport& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stop_reason, b.stop_reason);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_EQ(a.fitness, b.fitness);  // bitwise
  EXPECT_EQ(a.final_ranks, b.final_ranks);
  ASSERT_EQ(a.recovery_log.size(), b.recovery_log.size());
  for (std::size_t i = 0; i < a.recovery_log.size(); ++i) {
    EXPECT_EQ(a.recovery_log[i].sweep, b.recovery_log[i].sweep);
    EXPECT_EQ(a.recovery_log[i].what, b.recovery_log[i].what);
  }
}

[[nodiscard]] bool log_mentions(const solver::SolveReport& r,
                                const std::string& needle) {
  for (const core::RecoveryEvent& e : r.recovery_log)
    if (e.what.find(needle) != std::string::npos) return true;
  return false;
}

// The acceptance scenario: 8 ranks, dense ALS, one rank aborted mid-solve.
// The run must finish on the 7 survivors with the uninterrupted fitness.
TEST(Elastic, ShrinkFinishesWithUninterruptedFitness) {
  solver::SolverSpec clean = elastic_spec(solver::Method::kAls, false);
  const solver::SolveReport baseline = parpp::solve(dense_input(), clean);
  ASSERT_EQ(baseline.status, core::SolveStatus::kOk);

  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  add_rank_abort(spec, /*rank=*/3, /*nth=*/40);
  const solver::SolveReport r = parpp::solve(dense_input(), spec);

  EXPECT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
  EXPECT_NE(r.stop_reason, solver::StopReason::kFault);
  EXPECT_EQ(r.final_ranks, kRanks - 1);
  EXPECT_NEAR(r.fitness, baseline.fitness, 1e-6);
  EXPECT_EQ(r.sweeps, baseline.sweeps);
  EXPECT_TRUE(log_mentions(r, "communicator shrunk 8 -> 7"));
  EXPECT_TRUE(log_mentions(r, "rank(s) 3 lost"));

  // Bitwise-deterministic recovery: same seed, same plan, same report.
  expect_identical_reports(r, parpp::solve(dense_input(), spec));
}

// Sparse storage: the shrink repartitions the nonzeros over the smaller
// grid (reported as post-shrink imbalance) and conserves every nonzero.
TEST(Elastic, SparseShrinkRepartitions) {
  solver::SolverSpec clean = elastic_spec(solver::Method::kAls, true);
  clean.execution.partition = dist::PartitionKind::kBalancedNnz;
  const solver::SolveReport baseline = parpp::solve(sparse_input(), clean);

  solver::SolverSpec spec = clean;
  add_rank_abort(spec, /*rank=*/5, /*nth=*/45);
  const solver::SolveReport r = parpp::solve(sparse_input(), spec);

  EXPECT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
  EXPECT_EQ(r.final_ranks, kRanks - 1);
  EXPECT_NEAR(r.fitness, baseline.fitness, 1e-6);
  EXPECT_GT(r.post_shrink_nnz_imbalance, 0.0);
  expect_identical_reports(r, parpp::solve(sparse_input(), spec));
}

// The NNCP (HALS) driver shares the elastic runner.
TEST(Elastic, NncpShrinkRecovers) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kNncpHals, false);
  add_rank_abort(spec, /*rank=*/2, /*nth=*/40);
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
  EXPECT_EQ(r.final_ranks, kRanks - 1);
  EXPECT_TRUE(std::isfinite(r.fitness));
  expect_identical_reports(r, parpp::solve(dense_input(), spec));
}

// The PP methods too (the phase machinery re-earns PP eligibility with an
// exact sweep after the shrink). Rank 2 dies mid-phase, the phase replays
// from its start, and the replayed sweeps are counted and recorded once.
void expect_pp_shrink_recovers(solver::Method method) {
  solver::SolverSpec spec = elastic_spec(method, false);
  add_rank_abort(spec, /*rank=*/2, /*nth=*/60);
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
  EXPECT_EQ(r.final_ranks, kRanks - 1);
  EXPECT_TRUE(std::isfinite(r.fitness));
  EXPECT_EQ(r.num_als_sweeps + r.num_pp_init + r.num_pp_approx, r.sweeps);
  EXPECT_LE(static_cast<int>(r.history.size()), r.sweeps);
  expect_identical_reports(r, parpp::solve(dense_input(), spec));
}

TEST(Elastic, PpShrinkRecovers) {
  expect_pp_shrink_recovers(solver::Method::kPp);
}

TEST(Elastic, PpNncpShrinkRecovers) {
  expect_pp_shrink_recovers(solver::Method::kPpNncp);
}

// A FaultPlan sequence: two non-adjacent ranks die in different sweeps;
// the run shrinks twice and finishes on 6 survivors.
TEST(Elastic, SequenceShrinksTwice) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  add_rank_abort(spec, /*rank=*/2, /*nth=*/40);
  add_rank_abort(spec, /*rank=*/5, /*nth=*/90);
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
  EXPECT_EQ(r.final_ranks, kRanks - 2);
  EXPECT_TRUE(log_mentions(r, "communicator shrunk 8 -> 7"));
  EXPECT_TRUE(log_mentions(r, "communicator shrunk 7 -> 6"));
  EXPECT_TRUE(std::isfinite(r.fitness));
  expect_identical_reports(r, parpp::solve(dense_input(), spec));
}

// A rank and its buddy (the next participant, which mirrors its state)
// scheduled to die at the SAME collective. Whether both faults actually
// fire races with poison propagation — exactly as two concurrent hardware
// failures would in real MPI — so this test pins the invariant rather than
// one outcome: the run either aborts cleanly naming the unrecoverable
// replica pair (both died in one round) or recovers past the deaths it
// could absorb (poison unwound one rank before its fault fired, or the
// replicated rebuild snapshot covered the second loss). Never a hang,
// never a silent wrong answer.
TEST(Elastic, AdjacentDoubleDeathEndsStructured) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  add_rank_abort(spec, /*rank=*/2, /*nth=*/40);
  add_rank_abort(spec, /*rank=*/3, /*nth=*/40);
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  if (r.status == core::SolveStatus::kCommAbort) {
    // Both lost in one round ("replica holder" verdict), or the second
    // fault struck during recovery itself: either way a clean, explained
    // collective abort.
    EXPECT_EQ(r.stop_reason, solver::StopReason::kFault);
    EXPECT_FALSE(r.recovery_log.empty());
  } else {
    ASSERT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
    EXPECT_NE(r.stop_reason, solver::StopReason::kFault);
    EXPECT_LE(r.final_ranks, kRanks - 1);
    EXPECT_GE(r.final_ranks, kRanks - 2);
    EXPECT_TRUE(std::isfinite(r.fitness));
  }
}

// Elastic off: the same rank abort keeps the PR-8 semantics — a collective
// comm-abort naming the lost rank.
TEST(Elastic, OffKeepsAbortSemantics) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  spec.execution.elastic.mode = par::ElasticMode::kOff;
  add_rank_abort(spec, /*rank=*/3, /*nth=*/40);
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kCommAbort);
  EXPECT_EQ(r.stop_reason, solver::StopReason::kFault);
}

// A transient delay longer than the barrier timeout but within the retry
// budget is absorbed by the retry-with-backoff: no rank is declared dead,
// no shrink happens, the delay is just logged.
TEST(Elastic, TransientDelayAbsorbedByRetry) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  spec.execution.comm_timeout_seconds = 0.15;
  spec.execution.fault.kind = mpsim::FaultKind::kDelay;
  spec.execution.fault.rank = 1;
  spec.execution.fault.nth = 12;
  spec.execution.fault.delay_seconds = 0.25;  // > timeout, < retry budget
  spec.execution.fault.seed = spec.seed;
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kRecovered);
  EXPECT_EQ(r.final_ranks, kRanks);
  EXPECT_FALSE(log_mentions(r, "shrunk"));
  EXPECT_TRUE(log_mentions(r, "communication delay"));
}

// A timeout-fault rank stalls past every retry, the survivors poison the
// epoch — but the stalled rank breaks its stall on the poison and is never
// declared dead, so the shrink consensus rebuilds at FULL size: recovered,
// not recovered-shrunk.
TEST(Elastic, TimeoutFaultRejoinsZeroLoss) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  spec.execution.comm_timeout_seconds = 0.3;
  spec.execution.fault.kind = mpsim::FaultKind::kTimeout;
  spec.execution.fault.rank = 1;
  spec.execution.fault.nth = 12;
  spec.execution.fault.seed = spec.seed;
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kRecovered);
  EXPECT_EQ(r.final_ranks, kRanks);
  EXPECT_TRUE(log_mentions(r, "rejoined"));
  EXPECT_TRUE(std::isfinite(r.fitness));
}

// A failure before the first snapshot is ever replicated (here: during
// context construction) cold-restarts the survivors from the deterministic
// initial factors instead of a warm snapshot.
TEST(Elastic, ColdRestartBeforeFirstSnapshot) {
  solver::SolverSpec spec = elastic_spec(solver::Method::kAls, false);
  add_rank_abort(spec, /*rank=*/4, /*nth=*/2);  // mid init-gram collectives
  const solver::SolveReport r = parpp::solve(dense_input(), spec);
  EXPECT_EQ(r.status, core::SolveStatus::kRecoveredShrunk);
  EXPECT_EQ(r.final_ranks, kRanks - 1);
  EXPECT_TRUE(log_mentions(r, "initial factors"));
  EXPECT_TRUE(std::isfinite(r.fitness));
  expect_identical_reports(r, parpp::solve(dense_input(), spec));
}

}  // namespace
}  // namespace parpp
