// Communicator abstraction over the thread-rank simulator.
//
// Substitutes for MPI: each rank is a std::thread; the collectives below
// exchange data through shared staging pointers guarded by a group
// barrier, and additionally charge the BSP alpha-beta model costs that a
// fully-connected network implementation would incur (Sec. II-E).
//
// Fault tolerance: the barrier is a phased condition-variable barrier that
// can be *poisoned* (by a timeout, an injected fault, or a rank-body
// exception) instead of std::barrier, which would deadlock the survivors.
// Poisoning cascades over the whole communicator tree (world + every split
// child) so no rank can hang waiting on a group whose sibling already
// failed; every rank then observes CommFailure at its next barrier.
//
// Memory-safety invariant under poison: a collective's cross-rank copy
// window only opens once ALL ranks passed the same publication barrier, and
// a poisoned barrier still rendezvouses (waits for every rank to arrive, up
// to a grace period) before throwing. A rank can therefore only unwind —
// and free its published buffers — after every peer finished reading them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "parpp/mpsim/cost.hpp"
#include "parpp/mpsim/fault.hpp"
#include "parpp/mpsim/verify.hpp"
#include "parpp/util/common.hpp"
#include "parpp/util/profile.hpp"

namespace parpp::mpsim {

namespace detail {

struct Group;

/// Shared by every Group of one communicator tree (the world group and all
/// split descendants); lets a failure anywhere poison everything at once.
struct GroupRegistry {
  std::mutex mutex;
  std::vector<std::weak_ptr<Group>> groups;

  void add(const std::shared_ptr<Group>& g);
  void poison_all(const std::string& reason);
};

/// World-scope consensus state for elastic shrink (ULFM-style continuation).
/// Lives *outside* the poisonable Group tree: once a failure poisons every
/// group, the survivors can no longer use barriers to agree on anything, so
/// they rendezvous here instead. Sticky death flags are indexed by original
/// world rank and survive across shrinks; each consensus round (epoch)
/// collects every rank not marked dead, declares unresponsive stragglers
/// dead after a grace period, and publishes one rebuilt Group (fresh
/// registry, fresh verifier sequence numbers) that all survivors adopt.
struct ShrinkBoard {
  explicit ShrinkBoard(int world_size);

  /// Mark a world rank dead (sticky). Safe from any thread; wakes shrink
  /// waiters so consensus can complete without waiting out the grace period.
  void mark_dead(int world_rank, const std::string& why);
  [[nodiscard]] bool is_dead(int world_rank);

  std::mutex mutex;
  std::condition_variable cv;
  std::vector<char> dead;       ///< sticky, world-rank indexed
  std::vector<char> joined;     ///< current epoch's arrivals; reset per epoch
  std::uint64_t epoch = 0;      ///< completed consensus rounds
  /// Result of the last round. Weak on purpose: the rebuilt Group holds the
  /// board through `Group::board`, so a strong handle here would form a
  /// reference cycle that outlives the run. The creating thread keeps a
  /// strong reference through the adoption barrier (which every survivor
  /// must reach after locking this handle), so adoption never observes an
  /// expired pointer unless the creator itself aborted mid-recovery.
  std::weak_ptr<Group> last_group;
  std::vector<int> last_survivors;     ///< world ranks, ascending
  std::string last_death_reason;       ///< why the most recent rank died
};

/// Shared state for one communicator group. All member ranks hold the same
/// Group through shared_ptr; staging slots are indexed by group rank.
struct Group {
  explicit Group(int size);
  ~Group();

  int size;
  /// Longest a rank waits at a barrier before declaring the group dead.
  double timeout_seconds = 60.0;
  /// Bounded retry-with-backoff on the timed barrier: after the first
  /// timeout expires, a waiter extends its deadline `barrier_retries` times
  /// (each extension timeout_seconds * retry_backoff) before declaring the
  /// group dead. Transient delays in (T, T * (1 + retries * backoff)] are
  /// absorbed without poisoning anything. The kTimeout fault's stall bound
  /// (3 T + 0.1, see fault.cpp) exceeds the full budget, so a genuinely
  /// unresponsive rank is still always declared dead.
  int barrier_retries = 1;
  double retry_backoff = 1.5;
  std::shared_ptr<GroupRegistry> registry;
  /// Shrink consensus board shared by the whole communicator tree across
  /// shrinks; null when the runtime did not enable elastic recovery.
  std::shared_ptr<ShrinkBoard> board;
  /// Group rank -> original world rank (identity for the initial world
  /// group, the survivor list for shrunken ones; empty for split children,
  /// which never shrink directly).
  std::vector<int> world_ranks;

  std::vector<const double*> src;  ///< publish slots (one per rank)
  std::vector<double*> dst;        ///< destination slots where needed

  // Collective-matching verifier state (see verify.hpp). When `verify` is
  // set, every rendezvous publishes a per-rank fingerprint alongside its
  // staging pointer and cross-checks the group before any payload copy
  // window opens. Slots are rank-indexed; the publication barrier is the
  // only synchronization they need.
  bool verify = false;
  std::vector<Fingerprint> fps;
  std::vector<std::uint64_t> seq_counters;

  // Phased barrier with poison support.
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::uint64_t phase = 0;
  bool failed = false;      ///< poison flag; barriers throw once set
  bool dead = false;        ///< poisoned rendezvous done: throw immediately
  std::string fail_reason;

  /// Synchronize the group; throws CommFailure when the group is poisoned
  /// (after rendezvousing with the other arrivals — see file comment) or
  /// when the wait exceeds timeout_seconds.
  void barrier_wait();

  /// Mark this group failed and wake all waiters. Does not cascade; use
  /// poison_tree for that.
  void poison(const std::string& reason);

  /// Poison every group in this communicator tree.
  void poison_tree(const std::string& reason);

  [[nodiscard]] bool poisoned();

  // split() coordination: rank 0 per color creates the child group.
  std::mutex split_mutex;
  std::map<int, std::shared_ptr<Group>> split_children;
  std::vector<std::pair<int, int>> split_keys;  ///< (color, key) per rank
  std::uint64_t split_generation = 0;
};

/// Creates a Group wired into `registry` (a fresh registry when null).
[[nodiscard]] std::shared_ptr<Group> make_group(
    int size, std::shared_ptr<GroupRegistry> registry = nullptr);

}  // namespace detail

/// Handle a rank uses to talk to its group. Cheap to copy.
class Comm {
 public:
  Comm() = default;
  Comm(std::shared_ptr<detail::Group> group, int rank, CostCounter* cost,
       Profile* profile, FaultyComm* fault = nullptr);

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const { return group_ ? group_->size : 1; }

  // Every collective takes a mandatory call-site tag (PARPP_COMM_TAG) so
  // the matching verifier can attribute a mismatched rendezvous to exact
  // source lines on every rank. The compiler enforces that a tag exists;
  // tools/parpp_lint enforces that it is the macro, not a bare {}.

  void barrier(CommTag tag) const;

  /// All ranks contribute `count` words at `data`; on return every rank's
  /// buffer holds the element-wise sum. In place.
  void allreduce_sum(double* data, index_t count, CommTag tag) const;

  /// Gathers `local_count` words from each rank into `out` (size
  /// local_count * size) in rank order. `in` may alias `out + rank*count`.
  void allgather(const double* in, index_t local_count, double* out,
                 CommTag tag) const;

  /// Element-wise sums the full `total_count`-word buffers across ranks and
  /// leaves chunk `rank` (of size total_count / size, which must divide) in
  /// `out`.
  void reduce_scatter_sum(const double* in, index_t total_count, double* out,
                          CommTag tag) const;

  /// Broadcast `count` words from `root` to all ranks. In place.
  void bcast(double* data, index_t count, int root, CommTag tag) const;

  /// Personalized all-to-all: rank r sends chunk q of `in` to rank q, which
  /// stores it at chunk r of `out`. Chunk size = count_per_pair words.
  void alltoall(const double* in, index_t count_per_pair, double* out,
                CommTag tag) const;

  /// Collective split: every member must call with some (color, key); ranks
  /// sharing a color form a child communicator ordered by (key, old rank).
  [[nodiscard]] Comm split(int color, int key, CommTag tag) const;

  /// Elastic shrink (ULFM-style): after observing CommFailure on this
  /// (world) communicator, every surviving rank calls shrink(). Survivors
  /// agree on the live-rank set through the shrink board — a poison-tolerant
  /// consensus that waits for every rank not already marked dead, declaring
  /// unresponsive stragglers dead after a grace period sized to outlast the
  /// barrier retry budget and the kTimeout stall bound — then the first rank
  /// past the consensus rebuilds a smaller Group under a *fresh* registry
  /// (the old tree stays poisoned) with the verifier re-registered and
  /// program-order sequence numbers reset. Returns the new communicator; the
  /// first collective on it is a verified barrier carrying `tag`, proving
  /// the rebuilt group round-trips before any payload moves. Throws
  /// CommFailure if this rank was itself declared dead, or if no shrink
  /// board exists (runtime without elastic support).
  [[nodiscard]] Comm shrink(CommTag tag) const;

  /// True when this communicator tree carries a shrink board.
  [[nodiscard]] bool shrink_supported() const {
    return group_ && group_->board != nullptr;
  }

  /// This rank's original world rank (identity before any shrink).
  [[nodiscard]] int world_rank() const;

  /// Group rank -> original world rank for every member (ascending after a
  /// shrink). Empty for split children.
  [[nodiscard]] const std::vector<int>& group_world_ranks() const;

  /// True when the shrink board has declared this rank dead (it must abort
  /// rather than rejoin).
  [[nodiscard]] bool marked_dead() const;

  /// Register this rank's own death on the shrink board (local failure
  /// outside a collective) so a concurrent shrink excludes it immediately.
  void mark_self_dead(const std::string& why) const;

  /// Poison this communicator's whole tree: every rank's next barrier (in
  /// any group) throws CommFailure with `reason`. Used by the runtime when
  /// a rank body throws outside a collective, so peers fail fast instead of
  /// deadlocking.
  void poison(const std::string& reason) const;

  [[nodiscard]] CostCounter* cost() const { return cost_; }
  [[nodiscard]] Profile* profile() const { return profile_; }
  [[nodiscard]] FaultyComm* fault() const { return fault_; }

 private:
  /// Raw phased-barrier wait for the internal synchronization points of a
  /// collective already past its verified entry (these are protocol steps,
  /// not program-order rendezvous, so they are never fingerprinted).
  void sync() const;

  /// Verified rendezvous entry: publishes this rank's fingerprint (when the
  /// group verifies), runs the publication barrier, then cross-checks every
  /// rank's claim — throwing CommFailure with per-rank call-site
  /// diagnostics on mismatch, before any payload copy window opens.
  void enter_collective(VerifyOp op, index_t count, int root,
                        CommTag tag) const;

  std::shared_ptr<detail::Group> group_;
  int rank_ = 0;
  CostCounter* cost_ = nullptr;
  Profile* profile_ = nullptr;
  FaultyComm* fault_ = nullptr;
};

}  // namespace parpp::mpsim
