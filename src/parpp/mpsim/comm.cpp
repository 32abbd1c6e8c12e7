#include "parpp/mpsim/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace parpp::mpsim {

namespace detail {

namespace {

std::chrono::steady_clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(seconds));
}

}  // namespace

ShrinkBoard::ShrinkBoard(int world_size)
    : dead(static_cast<std::size_t>(world_size), 0),
      joined(static_cast<std::size_t>(world_size), 0) {}

void ShrinkBoard::mark_dead(int world_rank, const std::string& why) {
  std::lock_guard<std::mutex> lk(mutex);
  if (!dead[static_cast<std::size_t>(world_rank)]) {
    dead[static_cast<std::size_t>(world_rank)] = 1;
    last_death_reason = why;
  }
  cv.notify_all();
}

bool ShrinkBoard::is_dead(int world_rank) {
  std::lock_guard<std::mutex> lk(mutex);
  return dead[static_cast<std::size_t>(world_rank)] != 0;
}

void GroupRegistry::add(const std::shared_ptr<Group>& g) {
  std::lock_guard<std::mutex> lk(mutex);
  groups.push_back(g);
}

void GroupRegistry::poison_all(const std::string& reason) {
  std::vector<std::shared_ptr<Group>> alive;
  {
    std::lock_guard<std::mutex> lk(mutex);
    alive.reserve(groups.size());
    for (auto& w : groups)
      if (auto g = w.lock()) alive.push_back(std::move(g));
  }
  for (auto& g : alive) g->poison(reason);
}

Group::Group(int size_in)
    : size(size_in),
      src(static_cast<std::size_t>(size_in), nullptr),
      dst(static_cast<std::size_t>(size_in), nullptr),
      fps(static_cast<std::size_t>(size_in)),
      seq_counters(static_cast<std::size_t>(size_in), 0),
      split_keys(static_cast<std::size_t>(size_in), {0, 0}) {
  PARPP_CHECK(size_in >= 1, "communicator group must have >= 1 rank");
}

Group::~Group() {
  // The last member to release its handle destroys the group, and that can
  // happen on a rank thread while a registry-wide poison cascade has only
  // just published this group's fail reason and broadcast its cv from
  // another thread. The poisoner holds a shared_ptr for the duration of the
  // call, so teardown cannot truly overlap it -- but the only ordering
  // between its critical section and this destructor is the refcount chain.
  // Take each lock once so the poisoner's unlock is explicitly ordered
  // before the cv, mutex, and reason string are destroyed.
  { std::lock_guard<std::mutex> lk(mutex); }
  { std::lock_guard<std::mutex> lk(split_mutex); }
}

void Group::poison(const std::string& reason) {
  std::lock_guard<std::mutex> lk(mutex);
  if (!failed) {
    failed = true;
    fail_reason = reason;
  }
  cv.notify_all();
}

void Group::poison_tree(const std::string& reason) {
  if (registry) {
    registry->poison_all(reason);
  } else {
    poison(reason);
  }
}

bool Group::poisoned() {
  std::lock_guard<std::mutex> lk(mutex);
  return failed;
}

void Group::barrier_wait() {
  std::unique_lock<std::mutex> lk(mutex);
  if (dead) throw CommFailure(fail_reason);
  const std::uint64_t my_phase = phase;
  if (++arrived == size) {
    arrived = 0;
    ++phase;
    const bool was_failed = failed;
    if (was_failed) dead = true;  // rendezvous done; no one else is coming
    cv.notify_all();
    if (was_failed) throw CommFailure(fail_reason);
    return;
  }
  auto deadline = std::chrono::steady_clock::now() +
                  to_duration(timeout_seconds);
  bool grace_applied = false;
  int retries_left = barrier_retries;
  while (phase == my_phase && !dead) {
    if (failed && !grace_applied) {
      // Poisoned while waiting. Still rendezvous: peers between the
      // previous barrier and this one may be reading buffers we published,
      // and they only stop needing them once they arrive here. Give them a
      // bounded grace window, then fail regardless (covers a poisoner that
      // already left the collective and will never arrive).
      grace_applied = true;
      deadline = std::chrono::steady_clock::now() +
                 to_duration(std::min(timeout_seconds, 1.0));
    }
    if (cv.wait_until(lk, deadline) == std::cv_status::timeout &&
        phase == my_phase && !dead) {
      if (!grace_applied && !failed && retries_left > 0) {
        // Bounded retry-with-backoff: absorb a transient delay (a slow but
        // live peer) by extending the deadline instead of declaring the
        // group dead at the first expiry. The total budget stays below the
        // kTimeout fault's stall bound, so genuine stalls still poison.
        --retries_left;
        deadline = std::chrono::steady_clock::now() +
                   to_duration(timeout_seconds * retry_backoff);
        continue;
      }
      failed = true;
      dead = true;
      if (fail_reason.empty())
        fail_reason = "collective timed out (unresponsive rank)";
      ++phase;  // release everyone else stuck on this phase
      arrived = 0;
      const std::string reason = fail_reason;
      cv.notify_all();
      lk.unlock();
      if (registry) registry->poison_all(reason);
      throw CommFailure(reason);
    }
  }
  if (failed || dead) throw CommFailure(fail_reason);
}

std::shared_ptr<Group> make_group(int size,
                                  std::shared_ptr<GroupRegistry> registry) {
  auto group = std::make_shared<Group>(size);
  group->registry =
      registry ? std::move(registry) : std::make_shared<GroupRegistry>();
  group->registry->add(group);
  return group;
}

}  // namespace detail

Comm::Comm(std::shared_ptr<detail::Group> group, int rank, CostCounter* cost,
           Profile* profile, FaultyComm* fault)
    : group_(std::move(group)),
      rank_(rank),
      cost_(cost),
      profile_(profile),
      fault_(fault) {}

void Comm::sync() const {
  if (group_ && group_->size > 1) group_->barrier_wait();
}

void Comm::enter_collective(VerifyOp op, index_t count, int root,
                            CommTag tag) const {
  auto& g = *group_;
  if (!g.verify) {
    sync();
    return;
  }
  // Publish this rank's claim next to its staging pointer; the barrier that
  // opens the copy window also publishes the fingerprints — no extra
  // rendezvous. Rank-indexed slots, so the writes race with nothing.
  auto& mine = g.fps[static_cast<std::size_t>(rank_)];
  mine.op = op;
  mine.count = count;
  mine.root = root;
  mine.seq = g.seq_counters[static_cast<std::size_t>(rank_)]++;
  mine.tag = tag;
  sync();
  // Cross-check before any payload copy: a count mismatch would otherwise
  // read out of bounds, a kind mismatch would corrupt staging slots. Every
  // rank sees the identical table, computes the identical diagnosis, and
  // throws — nobody copies, nobody hangs.
  for (int r = 1; r < g.size; ++r) {
    if (fingerprints_match(g.fps[0], g.fps[static_cast<std::size_t>(r)]))
      continue;
    const std::string reason = describe_mismatch(g.fps);
    g.poison_tree(reason);
    throw CommFailure(reason);
  }
  // Every other collective has at least one more internal phase, which pins
  // all ranks inside the op until every cross-check above finished. A bare
  // barrier has none, so a fast rank could return, enter its next
  // collective, and overwrite its fingerprint slot while a slow rank still
  // reads it. Close the check window explicitly for that one op.
  if (op == VerifyOp::kBarrier) sync();
}

void Comm::barrier(CommTag tag) const {
  if (group_ && group_->size > 1)
    enter_collective(VerifyOp::kBarrier, 0, -1, tag);
}

void Comm::poison(const std::string& reason) const {
  if (group_) group_->poison_tree(reason);
}

void Comm::allreduce_sum(double* data, index_t count, CommTag tag) const {
  if (size() <= 1) return;
  ScopedProfile sp(profile_ ? *profile_ : Profile::thread_default(),
                   Kernel::kComm);
  if (cost_) cost_->charge(Collective::kAllReduce, size(), static_cast<double>(count));
  if (fault_)
    fault_->before_collective(Collective::kAllReduce, *group_, data, count);

  auto& g = *group_;
  g.src[static_cast<std::size_t>(rank_)] = data;
  enter_collective(VerifyOp::kAllReduce, count, -1, tag);
  // Each rank sums its own slice from everyone into a private buffer, then
  // publishes the slice; a final gather pass assembles the full result.
  const int p = size();
  const index_t chunk = (count + p - 1) / p;
  const index_t lo = std::min<index_t>(count, rank_ * chunk);
  const index_t hi = std::min<index_t>(count, lo + chunk);
  std::vector<double> slice(static_cast<std::size_t>(hi - lo), 0.0);
  for (int r = 0; r < p; ++r) {
    const double* s = g.src[static_cast<std::size_t>(r)];
    for (index_t i = lo; i < hi; ++i)
      slice[static_cast<std::size_t>(i - lo)] += s[i];
  }
  sync();  // all reads of src complete
  g.src[static_cast<std::size_t>(rank_)] = slice.data();
  g.dst[static_cast<std::size_t>(rank_)] = data;
  sync();
  // Everyone copies every slice into their own buffer. With count < p the
  // trailing slices are empty vectors, whose data() may be null.
  for (int r = 0; r < p; ++r) {
    const index_t rlo = std::min<index_t>(count, r * chunk);
    const index_t rhi = std::min<index_t>(count, rlo + chunk);
    if (rhi == rlo) continue;
    std::memcpy(data + rlo, g.src[static_cast<std::size_t>(r)],
                static_cast<std::size_t>(rhi - rlo) * sizeof(double));
  }
  sync();  // slices stay alive until all ranks finished copying
}

void Comm::allgather(const double* in, index_t local_count, double* out,
                     CommTag tag) const {
  if (size() <= 1) {
    if (out != in)
      std::memcpy(out, in,
                  static_cast<std::size_t>(local_count) * sizeof(double));
    return;
  }
  ScopedProfile sp(profile_ ? *profile_ : Profile::thread_default(),
                   Kernel::kComm);
  if (cost_)
    cost_->charge(Collective::kAllGather, size(),
                  static_cast<double>(local_count) * size());
  if (fault_)
    fault_->before_collective(Collective::kAllGather, *group_, nullptr,
                              local_count * size());
  auto& g = *group_;
  g.src[static_cast<std::size_t>(rank_)] = in;
  enter_collective(VerifyOp::kAllGather, local_count, -1, tag);
  for (int r = 0; r < size(); ++r) {
    const double* s = g.src[static_cast<std::size_t>(r)];
    if (out + r * local_count != s)
      std::memcpy(out + r * local_count, s,
                  static_cast<std::size_t>(local_count) * sizeof(double));
  }
  sync();
  if (fault_)
    fault_->after_collective(Collective::kAllGather, out,
                             local_count * size());
}

void Comm::reduce_scatter_sum(const double* in, index_t total_count,
                              double* out, CommTag tag) const {
  const int p = size();
  PARPP_CHECK(total_count % p == 0,
              "reduce_scatter: count must divide by ranks (use padding)");
  const index_t chunk = total_count / p;
  if (p == 1) {
    if (out != in) std::memcpy(out, in, static_cast<std::size_t>(chunk) * sizeof(double));
    return;
  }
  ScopedProfile sp(profile_ ? *profile_ : Profile::thread_default(),
                   Kernel::kComm);
  if (cost_)
    cost_->charge(Collective::kReduceScatter, p,
                  static_cast<double>(total_count));
  if (fault_)
    fault_->before_collective(Collective::kReduceScatter, *group_, nullptr,
                              total_count);
  auto& g = *group_;
  g.src[static_cast<std::size_t>(rank_)] = in;
  enter_collective(VerifyOp::kReduceScatter, total_count, -1, tag);
  const index_t lo = rank_ * chunk;
  std::fill(out, out + chunk, 0.0);
  for (int r = 0; r < p; ++r) {
    const double* s = g.src[static_cast<std::size_t>(r)] + lo;
    for (index_t i = 0; i < chunk; ++i) out[i] += s[i];
  }
  sync();
  if (fault_) fault_->after_collective(Collective::kReduceScatter, out, chunk);
}

void Comm::bcast(double* data, index_t count, int root, CommTag tag) const {
  if (size() <= 1) return;
  ScopedProfile sp(profile_ ? *profile_ : Profile::thread_default(),
                   Kernel::kComm);
  if (cost_)
    cost_->charge(Collective::kBcast, size(), static_cast<double>(count));
  if (fault_)
    fault_->before_collective(Collective::kBcast, *group_,
                              rank_ == root ? data : nullptr, count);
  auto& g = *group_;
  if (rank_ == root) g.src[static_cast<std::size_t>(root)] = data;
  enter_collective(VerifyOp::kBcast, count, root, tag);
  if (rank_ != root)
    std::memcpy(data, g.src[static_cast<std::size_t>(root)],
                static_cast<std::size_t>(count) * sizeof(double));
  sync();
  if (fault_ && rank_ != root)
    fault_->after_collective(Collective::kBcast, data, count);
}

void Comm::alltoall(const double* in, index_t count_per_pair, double* out,
                    CommTag tag) const {
  const int p = size();
  if (p == 1) {
    if (out != in)
      std::memcpy(out, in, static_cast<std::size_t>(count_per_pair) * sizeof(double));
    return;
  }
  ScopedProfile sp(profile_ ? *profile_ : Profile::thread_default(),
                   Kernel::kComm);
  if (cost_)
    cost_->charge(Collective::kAllToAll, p,
                  static_cast<double>(count_per_pair) * p);
  if (fault_)
    fault_->before_collective(Collective::kAllToAll, *group_, nullptr,
                              count_per_pair * p);
  auto& g = *group_;
  g.src[static_cast<std::size_t>(rank_)] = in;
  enter_collective(VerifyOp::kAllToAll, count_per_pair, -1, tag);
  for (int r = 0; r < p; ++r) {
    // Receive chunk destined to me (index rank_) from rank r.
    std::memcpy(out + r * count_per_pair,
                g.src[static_cast<std::size_t>(r)] + rank_ * count_per_pair,
                static_cast<std::size_t>(count_per_pair) * sizeof(double));
  }
  sync();
  if (fault_)
    fault_->after_collective(Collective::kAllToAll, out, count_per_pair * p);
}

Comm Comm::split(int color, int key, CommTag tag) const {
  if (!group_ || group_->size == 1) {
    auto child =
        detail::make_group(1, group_ ? group_->registry : nullptr);
    if (group_) {
      child->timeout_seconds = group_->timeout_seconds;
      child->barrier_retries = group_->barrier_retries;
      child->retry_backoff = group_->retry_backoff;
      child->board = group_->board;
    }
    return Comm(std::move(child), 0, cost_, profile_, fault_);
  }
  auto& g = *group_;
  g.split_keys[static_cast<std::size_t>(rank_)] = {color, key};
  // Colors and keys are rank-local by design, so the fingerprint checks
  // only that everyone is *in* a split (count 0) at the same point.
  enter_collective(VerifyOp::kSplit, 0, -1, tag);
  // One designated rank per color builds the child group.
  bool lowest_of_color = true;
  int my_child_size = 0;
  for (int r = 0; r < g.size; ++r) {
    if (g.split_keys[static_cast<std::size_t>(r)].first == color) {
      ++my_child_size;
      if (r < rank_) lowest_of_color = false;
    }
  }
  if (lowest_of_color) {
    auto child = detail::make_group(my_child_size, g.registry);
    child->timeout_seconds = g.timeout_seconds;
    child->barrier_retries = g.barrier_retries;
    child->retry_backoff = g.retry_backoff;
    child->verify = g.verify;
    // Children share the tree's shrink board so an injected rank-abort at a
    // slice collective still registers the death for the world consensus.
    child->board = g.board;
    std::lock_guard<std::mutex> lk(g.split_mutex);
    g.split_children[color] = std::move(child);
  }
  sync();
  std::shared_ptr<detail::Group> child;
  {
    std::lock_guard<std::mutex> lk(g.split_mutex);
    child = g.split_children.at(color);
  }
  // Child rank: order members by (key, parent rank).
  int child_rank = 0;
  const auto mine = g.split_keys[static_cast<std::size_t>(rank_)];
  for (int r = 0; r < g.size; ++r) {
    if (r == rank_) continue;
    const auto other = g.split_keys[static_cast<std::size_t>(r)];
    if (other.first != color) continue;
    if (other.second < mine.second ||
        (other.second == mine.second && r < rank_))
      ++child_rank;
  }
  sync();  // ensure map reads finish before any later split reuses it
  return Comm(child, child_rank, cost_, profile_, fault_);
}

int Comm::world_rank() const {
  if (!group_ || group_->world_ranks.empty()) return rank_;
  return group_->world_ranks[static_cast<std::size_t>(rank_)];
}

const std::vector<int>& Comm::group_world_ranks() const {
  static const std::vector<int> kEmpty;
  return group_ ? group_->world_ranks : kEmpty;
}

bool Comm::marked_dead() const {
  if (!group_ || !group_->board) return false;
  return group_->board->is_dead(world_rank());
}

void Comm::mark_self_dead(const std::string& why) const {
  if (group_ && group_->board) group_->board->mark_dead(world_rank(), why);
}

Comm Comm::shrink(CommTag tag) const {
  PARPP_CHECK(group_ != nullptr, "shrink: null communicator");
  auto& g = *group_;
  PARPP_CHECK(g.board != nullptr,
              "shrink: communicator tree has no shrink board (runtime was "
              "created without elastic support)");
  PARPP_CHECK(!g.world_ranks.empty(),
              "shrink: only the world communicator can shrink");
  auto board = g.board;
  const int me = world_rank();
  const int world_size = static_cast<int>(board->dead.size());
  // A live straggler reaches this consensus at most one kTimeout stall bound
  // after the failure (the stall breaks once the tree is poisoned, see
  // fault.cpp); waiting longer than that before declaring it dead keeps
  // false declarations out of the common chaos scenarios.
  const double grace = 3.0 * g.timeout_seconds + 1.5;

  std::shared_ptr<detail::Group> adopted;  // strong ref; see last_group doc
  std::unique_lock<std::mutex> lk(board->mutex);
  if (board->dead[static_cast<std::size_t>(me)])
    throw CommFailure("rank " + std::to_string(me) +
                      " was declared dead; cannot rejoin the shrunken "
                      "communicator");
  board->joined[static_cast<std::size_t>(me)] = 1;
  board->cv.notify_all();
  const std::uint64_t my_epoch = board->epoch;
  const auto deadline = std::chrono::steady_clock::now() +
                        detail::to_duration(grace);
  while (board->epoch == my_epoch) {
    bool pending = false;
    for (int w = 0; w < world_size; ++w) {
      const auto s = static_cast<std::size_t>(w);
      if (!board->dead[s] && !board->joined[s]) {
        pending = true;
        break;
      }
    }
    if (!pending) {
      // Every rank not marked dead has joined; the first thread to observe
      // that builds this round's result. The new group gets a *fresh*
      // registry — the old tree stays poisoned and must never infect the
      // rebuilt communicator — and fresh verifier sequence counters.
      std::vector<int> survivors;
      for (int w = 0; w < world_size; ++w)
        if (!board->dead[static_cast<std::size_t>(w)]) survivors.push_back(w);
      if (survivors.empty())
        throw CommFailure("shrink: no surviving ranks");
      auto ng = detail::make_group(static_cast<int>(survivors.size()));
      ng->timeout_seconds = g.timeout_seconds;
      ng->barrier_retries = g.barrier_retries;
      ng->retry_backoff = g.retry_backoff;
      ng->verify = g.verify;
      ng->board = board;
      ng->world_ranks = survivors;
      adopted = std::move(ng);
      board->last_group = adopted;
      board->last_survivors = std::move(survivors);
      std::fill(board->joined.begin(), board->joined.end(), 0);
      ++board->epoch;
      board->cv.notify_all();
      break;
    }
    if (board->cv.wait_until(lk, deadline) == std::cv_status::timeout &&
        board->epoch == my_epoch) {
      // Grace expired: whoever has not joined by now is unresponsive.
      for (int w = 0; w < world_size; ++w) {
        const auto s = static_cast<std::size_t>(w);
        if (!board->dead[s] && !board->joined[s]) {
          board->dead[s] = 1;
          board->last_death_reason =
              "rank " + std::to_string(w) +
              " unresponsive during shrink consensus";
        }
      }
      board->cv.notify_all();
    }
  }
  if (board->dead[static_cast<std::size_t>(me)])
    throw CommFailure("rank " + std::to_string(me) +
                      " was declared unresponsive during shrink consensus");
  int new_rank = -1;
  for (std::size_t i = 0; i < board->last_survivors.size(); ++i) {
    if (board->last_survivors[i] == me) {
      new_rank = static_cast<int>(i);
      break;
    }
  }
  PARPP_CHECK(new_rank >= 0, "shrink: survivor missing from consensus result");
  if (!adopted) adopted = board->last_group.lock();
  lk.unlock();
  if (!adopted)
    throw CommFailure(
        "shrink: rebuilt communicator was released before adoption (its "
        "creating rank aborted during recovery)");
  Comm out(std::move(adopted), new_rank, cost_, profile_, fault_);
  // First collective on the rebuilt communicator: a verified rendezvous
  // (fingerprinted when the tree verifies) proving the new group and its
  // re-registered verifier round-trip before any payload moves.
  out.barrier(tag);
  return out;
}

}  // namespace parpp::mpsim
