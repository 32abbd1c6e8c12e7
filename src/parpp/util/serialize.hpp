// Binary serialization for tensors and factor sets.
//
// Simple versioned little-endian container so decompositions can be
// checkpointed and compared across runs (the CLI tool and long experiments
// use this). Format: 8-byte magic, u32 version, u32 order, i64 extents,
// raw doubles.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/tensor/coo_tensor.hpp"
#include "parpp/tensor/dense_tensor.hpp"

namespace parpp::io {

void save_tensor(std::ostream& os, const tensor::DenseTensor& t);
[[nodiscard]] tensor::DenseTensor load_tensor(std::istream& is);

void save_matrix(std::ostream& os, const la::Matrix& m);
[[nodiscard]] la::Matrix load_matrix(std::istream& is);

void save_factors(std::ostream& os, const std::vector<la::Matrix>& factors);
[[nodiscard]] std::vector<la::Matrix> load_factors(std::istream& is);

/// File-path conveniences; throw parpp::error on I/O failure.
void save_tensor_file(const std::string& path, const tensor::DenseTensor& t);
[[nodiscard]] tensor::DenseTensor load_tensor_file(const std::string& path);
void save_factors_file(const std::string& path,
                       const std::vector<la::Matrix>& factors);
[[nodiscard]] std::vector<la::Matrix> load_factors_file(
    const std::string& path);

/// Everything a solve needs to restart mid-run: the factor set, the sweep
/// counter, the stopping-rule state (current and previous fitness, so the
/// resumed run makes exactly the stopping decision the uninterrupted run
/// would have), and the RNG provenance (seed + raw xoshiro state).
///
/// The factors are stored GLOBAL (assembled), never per-rank, which makes
/// a checkpoint rank-count-agnostic by construction: a run may resume on
/// any --ranks value — including fewer ranks than wrote it, the cold-path
/// complement of elastic shrink recovery — and the sweep loop repartitions on
/// load. `written_ranks` records the writer's world size as provenance
/// only (0 = unknown: a sequential writer or a pre-v2 file).
struct CheckpointState {
  std::vector<la::Matrix> factors;
  int sweep = 0;
  double fitness = 0.0;
  double prev_fitness = -1.0;
  double residual = 1.0;
  std::uint64_t seed = 0;
  std::array<std::uint64_t, 4> rng_state = {0, 0, 0, 0};
  int written_ranks = 0;
};

void save_checkpoint(std::ostream& os, const CheckpointState& ck);
[[nodiscard]] CheckpointState load_checkpoint(std::istream& is);

/// Crash-consistent file checkpoint: the state is serialized to `path +
/// ".tmp"`, flushed with fsync, then atomically renamed over `path`. A
/// crash at any point leaves either the previous complete checkpoint or
/// the new one — never a torn file. Throws parpp::error on I/O failure.
void save_checkpoint_file(const std::string& path, const CheckpointState& ck);
[[nodiscard]] CheckpointState load_checkpoint_file(const std::string& path);

/// FROSTT `.tns` text format: one "i1 i2 ... iN value" line per nonzero,
/// 1-indexed coordinates, '#' comment lines tolerated anywhere. save_tns
/// additionally writes a "# dims s1 ... sN" comment (still a valid FROSTT
/// comment) so all-zero trailing slices survive a round-trip; load_tns
/// honors it when present and otherwise infers each extent as the per-mode
/// maximum index. The loaded tensor is coalesced (duplicate coordinates
/// sum, FROSTT convention).
void save_tns(std::ostream& os, const tensor::CooTensor& t);
[[nodiscard]] tensor::CooTensor load_tns(std::istream& is);
void save_tns_file(const std::string& path, const tensor::CooTensor& t);
[[nodiscard]] tensor::CooTensor load_tns_file(const std::string& path);

}  // namespace parpp::io
