#include "parpp/mpsim/runtime.hpp"

#include <omp.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>

namespace parpp::mpsim {

CostCounter RunResult::max_cost() const {
  // Use the rank with the largest total modeled seconds as the critical
  // path representative.
  CostCounter best;
  double best_s = -1.0;
  const CostParams params;
  for (const auto& c : costs) {
    const double s = c.total().seconds(params);
    if (s > best_s) {
      best_s = s;
      best = c;
    }
  }
  return best;
}

Profile RunResult::max_profile() const {
  Profile best;
  double best_s = -1.0;
  for (const auto& p : profiles) {
    if (p.total_seconds() > best_s) {
      best_s = p.total_seconds();
      best = p;
    }
  }
  return best;
}

RunResult run(int nprocs, const std::function<void(Comm&)>& body,
              const RunOptions& options) {
  PARPP_CHECK(nprocs >= 1, "run: need at least one rank");
  const bool faulty = options.fault.active();
  if (faulty) {
    for (const auto& ev : options.fault.events()) {
      PARPP_CHECK(ev.rank >= 0 && ev.rank < nprocs,
                  "run: fault event targets rank ", ev.rank, " outside [0, ",
                  nprocs, ")");
      PARPP_CHECK(ev.nth >= 1, "run: fault event nth must be >= 1");
      PARPP_CHECK(ev.repeat >= 1, "run: fault event repeat must be >= 1");
      PARPP_CHECK(ev.repeat == 1 || ev.period >= 1,
                  "run: repeating fault event needs period >= 1");
    }
  }
  RunResult result;
  result.costs.resize(static_cast<std::size_t>(nprocs));
  result.profiles.resize(static_cast<std::size_t>(nprocs));

  auto group = detail::make_group(nprocs);
  group->timeout_seconds = options.comm_timeout_seconds > 0.0
                               ? options.comm_timeout_seconds
                               : (faulty ? 2.0 : 60.0);
  group->barrier_retries = std::max(0, options.barrier_retries);
  // Every world group carries a shrink board so elastic drivers can rebuild
  // after a failure; it is pure idle state when nothing ever shrinks.
  group->board = std::make_shared<detail::ShrinkBoard>(nprocs);
  group->world_ranks.resize(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r)
    group->world_ranks[static_cast<std::size_t>(r)] = r;
  bool verify = options.verify_collectives;
  if (const char* env = std::getenv("PARPP_VERIFY_COLLECTIVES"))
    verify = env[0] != '\0' && env[0] != '0';
  group->verify = verify;
  std::vector<std::unique_ptr<FaultyComm>> faults(
      static_cast<std::size_t>(nprocs));
  if (faulty) {
    for (int r = 0; r < nprocs; ++r)
      faults[static_cast<std::size_t>(r)] =
          std::make_unique<FaultyComm>(options.fault, r);
  }
  if (nprocs == 1) {
    // A lone rank has no peer to poison or wait for, so it runs inline on
    // the calling thread, with the caller's OpenMP team, and its profile is
    // what the body added to the caller's thread-local default.
    const Profile before = Profile::thread_default();
    Comm comm(group, 0, &result.costs[0], nullptr, faults[0].get());
    body(comm);
    result.profiles[0] = Profile::thread_default().delta_since(before);
    return result;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  std::vector<char> comm_failures(static_cast<std::size_t>(nprocs), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs));

  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      omp_set_num_threads(std::max(1, options.threads_per_rank));
      Profile::thread_default().clear();
      // Pass no explicit profile: collectives then charge the thread-local
      // default, the same sink the kernels use, so per-sweep deltas taken by
      // drivers see compute and communication together.
      Comm comm(group, r, &result.costs[static_cast<std::size_t>(r)], nullptr,
                faults[static_cast<std::size_t>(r)].get());
      try {
        body(comm);
      } catch (const CommFailure&) {
        // The tree is already poisoned (that is how CommFailure spreads);
        // just record it.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        comm_failures[static_cast<std::size_t>(r)] = 1;
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        group->poison_tree("rank " + std::to_string(r) +
                           " exception: " + e.what());
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        group->poison_tree("rank " + std::to_string(r) +
                           " threw a non-standard exception");
      }
      // Kernels that used the thread-local default profile report here.
      result.profiles[static_cast<std::size_t>(r)].accumulate(
          Profile::thread_default());
    });
  }
  for (auto& t : threads) t.join();
  // Prefer the root cause: a rank's own exception poisons the tree and the
  // peers then all throw secondary CommFailures.
  for (std::size_t r = 0; r < errors.size(); ++r)
    if (errors[r] && !comm_failures[r]) std::rethrow_exception(errors[r]);
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
  return result;
}

}  // namespace parpp::mpsim
