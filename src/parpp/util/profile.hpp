// Per-kernel-category wall-time accounting.
//
// The paper's Figure 3c–f breaks each ALS sweep into five categories:
// TTM, mTTV, hadamard, solve, and "others". Library kernels tag their work
// with a ScopedProfile so drivers and benchmarks can report the same
// breakdown. Profiling is per-thread-context: kernels reach a Profile
// through an explicit parameter or the thread-local default, which each
// simulator rank thread owns (a 1-rank run uses the calling thread's).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "parpp/util/timer.hpp"

namespace parpp {

enum class Kernel : int {
  kTTM = 0,       // first-level tensor-times-matrix (GEMM-bound)
  kMTTV,          // batched tensor-times-vector (bandwidth-bound)
  kHadamard,      // Gram Hadamard chains, Eq. (1)/(7)
  kSolve,         // SPD linear system solves
  kComm,          // collective communication (mpsim only)
  kOther,         // everything else in a sweep
  kCount
};

[[nodiscard]] const char* kernel_name(Kernel k);

/// Accumulates seconds and flop counts per kernel category.
class Profile {
 public:
  void add(Kernel k, double seconds, double flops = 0.0) {
    seconds_[static_cast<int>(k)] += seconds;
    flops_[static_cast<int>(k)] += flops;
  }

  [[nodiscard]] double seconds(Kernel k) const {
    return seconds_[static_cast<int>(k)];
  }
  [[nodiscard]] double flops(Kernel k) const {
    return flops_[static_cast<int>(k)];
  }
  [[nodiscard]] double total_seconds() const;
  [[nodiscard]] double total_flops() const;

  void clear();

  /// Difference (this - other), used to extract per-phase slices.
  [[nodiscard]] Profile delta_since(const Profile& earlier) const;

  /// Merge another profile into this one (e.g. max/sum across ranks).
  void accumulate(const Profile& other);

  /// Per-category maximum with `other` — the critical path of each kernel
  /// class across ranks (the rank slowest at MTTKRP need not be the rank
  /// slowest overall, e.g. when idle ranks wait in collectives).
  void max_merge(const Profile& other);

  /// Render a one-line summary like "TTM 1.2s | mTTV 0.3s | ...".
  [[nodiscard]] std::string summary() const;

  /// Profile used by kernels when no explicit profile is passed.
  /// Thread-local so concurrent mpsim ranks do not interleave.
  static Profile& thread_default();

 private:
  std::array<double, static_cast<int>(Kernel::kCount)> seconds_{};
  std::array<double, static_cast<int>(Kernel::kCount)> flops_{};
};

/// RAII timer that charges elapsed wall time (and optional flops) to a
/// category on destruction.
class ScopedProfile {
 public:
  ScopedProfile(Profile& p, Kernel k, double flops = 0.0)
      : profile_(p), kernel_(k), flops_(flops) {}
  explicit ScopedProfile(Kernel k, double flops = 0.0)
      : ScopedProfile(Profile::thread_default(), k, flops) {}
  ScopedProfile(const ScopedProfile&) = delete;
  ScopedProfile& operator=(const ScopedProfile&) = delete;
  ~ScopedProfile() { profile_.add(kernel_, timer_.seconds(), flops_); }

 private:
  Profile& profile_;
  Kernel kernel_;
  double flops_;
  WallTimer timer_;
};

}  // namespace parpp
