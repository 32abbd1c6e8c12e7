// Fused, allocation-free MTTKRP.
//
// Computes M(n) = T_(n) · KRP(factors != n) without materializing either
// the Khatri-Rao product (O(|T|/s_n · R) in the reference path) or the
// transposed unfolding copy (O(|T|)). The mode-n unfolding is addressed in
// place via stride arithmetic over the original row-major layout, and the
// KRP is formed block-wise as R-wide panels in workspace scratch that feed
// blocked GEMM micro-kernels — peak auxiliary memory is O(block · R)
// instead of O(|T|), and in steady state (reused workspace) the hot path
// performs zero heap allocations.
#pragma once

#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/tensor/dense_tensor.hpp"
#include "parpp/util/profile.hpp"
#include "parpp/util/workspace.hpp"

namespace parpp::tensor {

/// Fused MTTKRP of mode `n`. Bit-for-bit deterministic for a fixed thread
/// count. `ws` defaults to the calling thread's workspace. Charged to
/// Kernel::kTTM (2 |T| R flops), like the KRP+GEMM reference.
[[nodiscard]] la::Matrix mttkrp_fused(const DenseTensor& t,
                                      const std::vector<la::Matrix>& factors,
                                      int n, Profile* profile = nullptr,
                                      util::KernelWorkspace* ws = nullptr);

/// Out-parameter variant: reuses `out`'s storage when it already has the
/// right shape (the per-mode steady state of an ALS sweep), so repeated
/// sweeps allocate nothing.
void mttkrp_into(const DenseTensor& t, const std::vector<la::Matrix>& factors,
                 int n, la::Matrix& out, Profile* profile = nullptr,
                 util::KernelWorkspace* ws = nullptr);

}  // namespace parpp::tensor
