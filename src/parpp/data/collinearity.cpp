#include "parpp/data/collinearity.hpp"

#include <algorithm>
#include <cmath>

#include "parpp/la/eig_jacobi.hpp"
#include "parpp/la/gemm.hpp"
#include "parpp/tensor/reconstruct.hpp"

namespace parpp::data {

namespace {

/// Gram-Schmidt orthonormalization of random Gaussian columns.
la::Matrix random_orthonormal(index_t s, index_t rank, Rng& rng) {
  PARPP_CHECK(s >= rank, "random_orthonormal: need s >= rank");
  la::Matrix q(s, rank);
  q.fill_normal(rng);
  for (index_t j = 0; j < rank; ++j) {
    for (index_t k = 0; k < j; ++k) {
      double dot = 0.0;
      for (index_t i = 0; i < s; ++i) dot += q(i, j) * q(i, k);
      for (index_t i = 0; i < s; ++i) q(i, j) -= dot * q(i, k);
    }
    double norm = 0.0;
    for (index_t i = 0; i < s; ++i) norm += q(i, j) * q(i, j);
    norm = std::sqrt(norm);
    PARPP_CHECK(norm > 1e-12, "random_orthonormal: degenerate column");
    for (index_t i = 0; i < s; ++i) q(i, j) /= norm;
  }
  return q;
}

}  // namespace

la::Matrix collinear_factor(index_t s, index_t rank, double c, Rng& rng) {
  PARPP_CHECK(c >= 0.0 && c < 1.0, "collinearity must be in [0,1)");
  la::Matrix q = random_orthonormal(s, rank, rng);
  // K = (1-c) I + c 1 1^T has eigenvalues (1-c) [multiplicity R-1] and
  // 1 + (R-1)c [eigenvector 1/sqrt(R)]; build K^{1/2} in closed form:
  // K^{1/2} = sqrt(1-c) (I - P) + sqrt(1+(R-1)c) P with P = 1 1^T / R.
  const double a = std::sqrt(1.0 - c);
  const double b = std::sqrt(1.0 + (static_cast<double>(rank) - 1.0) * c);
  la::Matrix k_half(rank, rank);
  for (index_t i = 0; i < rank; ++i) {
    for (index_t j = 0; j < rank; ++j) {
      const double p = 1.0 / static_cast<double>(rank);
      k_half(i, j) = (i == j ? a * (1.0 - p) : -a * p) + b * p;
    }
  }
  return la::matmul(q, k_half);
}

CollinearTensor make_collinear_tensor(const std::vector<index_t>& shape,
                                      index_t rank, double c_lo, double c_hi,
                                      std::uint64_t seed, double noise) {
  PARPP_CHECK(!shape.empty(), "make_collinear_tensor: empty shape");
  PARPP_CHECK(noise >= 0.0, "make_collinear_tensor: negative noise");
  Rng root(seed);
  CollinearTensor out;
  out.collinearity = root.uniform(c_lo, c_hi);
  out.factors.reserve(shape.size());
  for (std::size_t m = 0; m < shape.size(); ++m) {
    Rng rng = root.split(m + 101);
    out.factors.push_back(
        collinear_factor(shape[m], rank, out.collinearity, rng));
  }
  out.tensor = tensor::reconstruct(out.factors);
  if (noise > 0.0) {
    const double scale = noise * out.tensor.frobenius_norm() /
                         std::sqrt(static_cast<double>(out.tensor.size()));
    const auto size = static_cast<std::size_t>(out.tensor.size());
    add_normal_noise({out.tensor.data(), size}, scale, root.split(4242));
  }
  return out;
}

void add_normal_noise(std::span<double> x, double scale, Rng rng) {
  if (!x.empty() && rng.has_spare_normal()) {
    x.front() += scale * rng.normal();
    x = x.subspan(1);
  }
  // rng now sits at a pair boundary. The skip draws what normal() draws
  // per pair: u1 until uniform() is nonzero (its top 53 bits), then u2.
  const auto n = static_cast<index_t>(x.size());
  const index_t chunks = (n + kNoiseChunk - 1) / kNoiseChunk;
  std::vector<Rng> start;
  start.reserve(static_cast<std::size_t>(chunks));
  for (index_t c = 0; c < chunks; ++c) {
    start.push_back(rng);
    if (c + 1 == chunks) break;
    for (index_t pair = 0; pair < kNoiseChunk / 2; ++pair) {
      std::uint64_t u1 = 0;
      while (u1 == 0) u1 = rng.next_u64() >> 11;
      (void)rng.next_u64();
    }
  }
#pragma omp parallel for schedule(static) if (chunks > 1)
  for (index_t c = 0; c < chunks; ++c) {
    Rng r = start[static_cast<std::size_t>(c)];
    const index_t end = std::min(n, (c + 1) * kNoiseChunk);
    for (index_t i = c * kNoiseChunk; i < end; ++i)
      x[static_cast<std::size_t>(i)] += scale * r.normal();
  }
}

}  // namespace parpp::data
