// Synthetic tensors with prescribed factor-column collinearity
// (Battaglino et al. construction, used for paper Fig. 4 / Fig. 5a).
#pragma once

#include <span>
#include <vector>

#include "parpp/la/matrix.hpp"
#include "parpp/tensor/dense_tensor.hpp"

namespace parpp::data {

/// Ground-truth factors plus the assembled tensor.
struct CollinearTensor {
  tensor::DenseTensor tensor;
  std::vector<la::Matrix> factors;
  double collinearity;
};

/// A single factor matrix A in R^{s x R} whose columns all satisfy
/// <a_i, a_j> / (|a_i| |a_j|) = c for i != j: A = Q K^{1/2} with Q having
/// orthonormal columns and K = (1-c) I + c 1 1^T.
[[nodiscard]] la::Matrix collinear_factor(index_t s, index_t rank, double c,
                                          Rng& rng);

/// Order-N tensor (shape `shape`) assembled from per-mode collinear factors
/// with collinearity drawn uniformly from [c_lo, c_hi). `noise` adds iid
/// Gaussian entries at the given fraction of the RMS tensor magnitude;
/// noise = 0 keeps the tensor exactly rank R. A small noise floor emulates
/// the slow convergence tail the paper's large instances exhibit. The noise
/// is one serial normal() stream in entry order (add_normal_noise), so the
/// tensor's bits depend on the seed only, never on the thread count.
[[nodiscard]] CollinearTensor make_collinear_tensor(
    const std::vector<index_t>& shape, index_t rank, double c_lo, double c_hi,
    std::uint64_t seed, double noise = 0.0);

/// Entries per add_normal_noise chunk. Even, so every chunk starts at a
/// Box–Muller pair, and fixed, so no value depends on the team.
inline constexpr index_t kNoiseChunk = index_t{1} << 16;

/// x[i] += scale * rng.normal() for i = 0, 1, ... in order, bit for bit.
/// One serial pass over the raw xoshiro stream (replaying normal()'s
/// u1 == 0 rejection) records the generator at each kNoiseChunk boundary;
/// the chunks then run Box–Muller on the team. Inputs of one chunk or less
/// stay serial.
void add_normal_noise(std::span<double> x, double scale, Rng rng);

}  // namespace parpp::data
