// Simulator entry point: run an SPMD function over P thread-ranks.
#pragma once

#include <functional>
#include <vector>

#include "parpp/mpsim/comm.hpp"
#include "parpp/mpsim/fault.hpp"

namespace parpp::mpsim {

struct RunOptions {
  /// OpenMP threads each rank may use inside kernels. Default 1 so rank
  /// wall-times are comparable; raise it for few-rank runs. A 1-rank run
  /// keeps the caller's team instead.
  int threads_per_rank = 1;
  /// Injected communication fault for chaos runs (none by default).
  FaultPlan fault = {};
  /// Barrier timeout; <= 0 picks the default (60 s, or 2 s when a fault
  /// plan is active so timeout-class chaos tests fail fast).
  double comm_timeout_seconds = 0.0;
  /// Bounded retry-with-backoff on the timed barrier: how many times a
  /// waiter extends its deadline (by timeout * 1.5 each) before declaring
  /// the group dead. Absorbs transient delay faults without poisoning;
  /// 0 restores the strict single-timeout behaviour.
  int barrier_retries = 1;
  /// Collective-matching verifier (see mpsim/verify.hpp): fingerprint every
  /// rendezvous (op kind, payload count, call-site tag, program-order
  /// sequence number) and cross-check the group before any payload moves,
  /// so a mismatched collective aborts deterministically with per-rank
  /// call-site diagnostics instead of deadlocking or corrupting buffers.
  /// On by default — the simulator is the test bed where matching bugs must
  /// surface before a real-MPI backend can inherit them; the check costs a
  /// small struct write plus a compare per collective, no extra barriers.
  /// The PARPP_VERIFY_COLLECTIVES environment variable (0/1) overrides.
  bool verify_collectives = true;
};

/// Result of a simulated run: per-rank cost tallies and kernel profiles.
struct RunResult {
  std::vector<CostCounter> costs;
  std::vector<Profile> profiles;

  [[nodiscard]] CostCounter max_cost() const;       ///< critical-path proxy
  [[nodiscard]] Profile max_profile() const;        ///< per-category max
};

/// Runs `body(comm)` on `nprocs` ranks (std::thread each) and returns the
/// per-rank accounting. A single rank runs inline on the calling thread,
/// with the caller's OpenMP team, and its exceptions propagate unchanged;
/// its profile is the delta it added to the caller's thread-local default.
/// With several ranks, a rank-body exception poisons the communicator tree
/// so the surviving ranks observe CommFailure at their next collective
/// instead of deadlocking; after all ranks join, the first non-CommFailure
/// exception (or, failing that, the first CommFailure) is rethrown. Bodies
/// that catch CommFailure themselves — the resilient drivers — therefore
/// return normally with their structured reports.
RunResult run(int nprocs, const std::function<void(Comm&)>& body,
              const RunOptions& options = {});

}  // namespace parpp::mpsim
