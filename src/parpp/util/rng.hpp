// Deterministic, splittable random number generation.
//
// All stochastic behaviour in the library (factor initialization, workload
// generators) flows through Rng so experiments are reproducible from a seed.
#pragma once

#include <array>
#include <cstdint>

#include "parpp/util/common.hpp"

namespace parpp {

/// xoshiro256** PRNG. Chosen over std::mt19937_64 for speed and a tiny,
/// copyable state; statistical quality is more than sufficient for
/// initializing factor matrices and synthetic tensors.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal variate (Box–Muller; stateless between calls except for
  /// the cached spare value).
  double normal();
  /// True when the next normal() returns the cached spare without drawing.
  [[nodiscard]] bool has_spare_normal() const { return has_spare_; }

  /// Uniform integer in [0, n). Requires n > 0.
  index_t uniform_index(index_t n);

  /// Derive an independent stream, e.g. one per thread-rank or per tensor
  /// mode. Derivation is deterministic in (current state, stream_id).
  [[nodiscard]] Rng split(std::uint64_t stream_id) const;

  /// Raw xoshiro256** state, for checkpoint/restart. set_state restores the
  /// uniform/integer stream exactly; the Box–Muller spare is dropped (the
  /// next normal() recomputes a pair), which only matters mid-pair.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const;
  void set_state(const std::array<std::uint64_t, 4>& s);

 private:
  std::uint64_t s_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace parpp
