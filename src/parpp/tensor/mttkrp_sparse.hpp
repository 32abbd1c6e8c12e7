// Sparse MTTKRP kernels over COO (reference) and CSF (execution) storage.
//
// The CSF path walks the fiber tree rooted at the requested mode: leaves
// contribute val * A(last).row, interior levels Hadamard the accumulated
// child sum with their own factor row, and the root scatters into the
// output row — 2R(nnz + interior nodes) flops, nothing proportional to the
// dense size. Two parallel schedules share that walk:
//
//   * fiber — one root fiber per task (distinct output rows, no write
//     conflicts). Starves when the root mode is shorter than the team.
//   * tiled — cache-sized tiles of level-1 nodes (CsfTensor::Tree tiling)
//     with work stealing over tiles. A root fiber split across tiles gets
//     its boundary contributions accumulated into tile-private rows and
//     added back in a serial O(tiles) fix-up, so short root modes still
//     scale.
//
// Under CsfLayout::kHalf a mode may instead be the *leaf* level of its
// serving tree; that takes a third schedule — a downward product-carrying
// walk that scatters val * prod into the leaf-mode rows (per-thread output
// slabs merged in thread order when the team is parallel).
//
// Per-thread accumulators (and the tile-boundary rows) are leased from the
// workspace and sized by the actual OpenMP team, making steady-state sweeps
// allocation-free exactly like the dense fused path.
#pragma once

#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/tensor/coo_tensor.hpp"
#include "parpp/tensor/csf_tensor.hpp"
#include "parpp/util/profile.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::tensor {

/// Entry-wise COO reference: M(n).row(i_n) += v * hadamard of the other
/// factor rows, per nonzero. Sequential, O(R) scratch — the validation
/// oracle for the CSF walk, not a performance path.
[[nodiscard]] la::Matrix mttkrp_coo(const CooTensor& t,
                                    const std::vector<la::Matrix>& factors,
                                    int n, Profile* profile = nullptr);

/// Parallel schedule of the CSF walk (see file comment).
enum class CsfWalk {
  kAuto,   ///< tiled when the root mode is too short to feed the team
  kFiber,  ///< one root fiber per task (the classic SPLATT schedule)
  kTiled,  ///< level-1 tiles with work stealing + boundary fix-up
};

/// CSF MTTKRP of mode `n` (tree rooted at n). `ws` defaults to the calling
/// thread's workspace. Charged to Kernel::kTTM with the exact sparse flop
/// count, like the dense engines.
[[nodiscard]] la::Matrix mttkrp_csf(const CsfTensor& t,
                                    const std::vector<la::Matrix>& factors,
                                    int n, Profile* profile = nullptr,
                                    util::KernelWorkspace* ws = nullptr,
                                    CsfWalk walk = CsfWalk::kAuto);

/// Out-parameter variant: reuses `out`'s storage when the shape already
/// matches (the per-mode steady state of an ALS sweep).
void mttkrp_csf_into(const CsfTensor& t,
                     const std::vector<la::Matrix>& factors, int n,
                     la::Matrix& out, Profile* profile = nullptr,
                     util::KernelWorkspace* ws = nullptr,
                     CsfWalk walk = CsfWalk::kAuto);

/// Pairwise-perturbation pair operator M_p(i,j) over sparse storage: the
/// (s_i, s_j, R) dense tensor obtained by contracting every mode except
/// {i, j} with its factor — an MTTKRP with two free modes. Walks the tree
/// rooted at `i` carrying a running Hadamard product down each path
/// (OpenMP over root fibers: distinct roots own distinct (x_i, :, :)
/// slabs, so there are no write conflicts). `out` is reshaped in place and
/// may be workspace-backed, which is what keeps periodic PP operator
/// rebuilds allocation-free. Requires order >= 3 and i != j.
/// Requires CsfLayout::kAllModes (every mode must have a root tree).
void pair_mttkrp_csf_into(const CsfTensor& t,
                          const std::vector<la::Matrix>& factors, int i,
                          int j, DenseTensor& out, Profile* profile = nullptr,
                          util::KernelWorkspace* ws = nullptr);

/// Entry-wise COO reference for the pair operator (validation oracle).
[[nodiscard]] DenseTensor pair_mttkrp_coo(const CooTensor& t,
                                          const std::vector<la::Matrix>& factors,
                                          int i, int j,
                                          Profile* profile = nullptr);

}  // namespace parpp::tensor
