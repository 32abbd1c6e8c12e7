// Tensor transposition (mode permutation), standing in for HPTT.
#pragma once

#include <vector>

#include "parpp/tensor/dense_tensor.hpp"

namespace parpp::tensor {

/// Returns T permuted so that output mode m equals input mode perm[m]:
/// out(i_0, ..., i_{N-1}) = in(i_{perm^{-1}(0)}, ...), i.e.
/// out.shape[m] == in.shape[perm[m]].
///
/// Implementation walks the input linearly and scatters with precomputed
/// output strides; a permutation that keeps the last mode last hits a
/// contiguous inner loop.
[[nodiscard]] DenseTensor transpose(const DenseTensor& in,
                                    const std::vector<int>& perm);

/// Out-parameter variant: `out` is reshaped (reusing its storage — possibly
/// workspace-backed — when capacity allows) and fully overwritten.
void transpose_into(const DenseTensor& in, const std::vector<int>& perm,
                    DenseTensor& out);

/// True if `perm` is a valid permutation of 0..n-1.
[[nodiscard]] bool is_permutation(const std::vector<int>& perm, int n);

}  // namespace parpp::tensor
