#include "parpp/data/sparse_synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "parpp/util/rng.hpp"

namespace parpp::data {

namespace {

/// k distinct values from [0, n), deterministic partial Fisher-Yates.
std::vector<index_t> sample_without_replacement(index_t n, index_t k,
                                                Rng& rng) {
  std::vector<index_t> pool(static_cast<std::size_t>(n));
  std::iota(pool.begin(), pool.end(), index_t{0});
  for (index_t i = 0; i < k; ++i) {
    const index_t j = i + rng.uniform_index(n - i);
    std::swap(pool[static_cast<std::size_t>(i)],
              pool[static_cast<std::size_t>(j)]);
  }
  pool.resize(static_cast<std::size_t>(k));
  std::sort(pool.begin(), pool.end());
  return pool;
}

/// Cumulative (unnormalized) Zipf weights over [0, s): slice i carries
/// weight (i+1)^-exponent.
std::vector<double> zipf_cdf(index_t s, double exponent) {
  std::vector<double> cdf(static_cast<std::size_t>(s));
  double acc = 0.0;
  for (index_t i = 0; i < s; ++i) {
    acc += std::pow(static_cast<double>(i + 1), -exponent);
    cdf[static_cast<std::size_t>(i)] = acc;
  }
  return cdf;
}

index_t zipf_draw(const std::vector<double>& cdf, Rng& rng) {
  const double u = rng.uniform() * cdf.back();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min(static_cast<index_t>(it - cdf.begin()),
                  static_cast<index_t>(cdf.size()) - 1);
}

/// k distinct Zipf-weighted draws from [0, cdf.size()), sorted. Rejection
/// sampling with a deterministic fallback (ascending unused indices) so the
/// call terminates even when k approaches the extent.
std::vector<index_t> zipf_sample_distinct(const std::vector<double>& cdf,
                                          index_t k, Rng& rng) {
  const auto s = static_cast<index_t>(cdf.size());
  std::vector<char> used(static_cast<std::size_t>(s), 0);
  std::vector<index_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (index_t attempts = 0;
       static_cast<index_t>(out.size()) < k && attempts < 30 * k + 100;
       ++attempts) {
    const index_t i = zipf_draw(cdf, rng);
    if (!used[static_cast<std::size_t>(i)]) {
      used[static_cast<std::size_t>(i)] = 1;
      out.push_back(i);
    }
  }
  for (index_t i = 0; static_cast<index_t>(out.size()) < k && i < s; ++i) {
    if (!used[static_cast<std::size_t>(i)]) out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Emits each rank-one term of `factors` on its support cross-product
/// (odometer walk) into storage reserved at the exact entry count; the
/// caller's coalesce() then sums overlapping terms, which is exactly [[A]]
/// there.
void emit_rank_one_terms(
    const std::vector<std::vector<std::vector<index_t>>>& supports,
    const std::vector<la::Matrix>& factors, index_t rank,
    tensor::CooTensor& t) {
  const int n = static_cast<int>(supports.size());
  index_t entries = 0;
  for (index_t r = 0; r < rank; ++r) {
    index_t term = 1;
    for (const auto& mode : supports)
      term *= static_cast<index_t>(mode[static_cast<std::size_t>(r)].size());
    entries += term;
  }
  t.reserve(entries);
  std::vector<index_t> tuple(static_cast<std::size_t>(n));
  std::vector<index_t> pos(static_cast<std::size_t>(n));
  for (index_t r = 0; r < rank; ++r) {
    std::fill(pos.begin(), pos.end(), index_t{0});
    while (true) {
      double v = 1.0;
      for (int m = 0; m < n; ++m) {
        const index_t i =
            supports[static_cast<std::size_t>(m)][static_cast<std::size_t>(r)]
                    [static_cast<std::size_t>(pos[static_cast<std::size_t>(m)])];
        tuple[static_cast<std::size_t>(m)] = i;
        v *= factors[static_cast<std::size_t>(m)](i, r);
      }
      t.push(tuple, v);
      int m = n - 1;
      while (m >= 0) {
        auto& pm = pos[static_cast<std::size_t>(m)];
        if (++pm < static_cast<index_t>(
                       supports[static_cast<std::size_t>(m)]
                               [static_cast<std::size_t>(r)].size()))
          break;
        pm = 0;
        --m;
      }
      if (m < 0) break;
    }
  }
}

}  // namespace

SparseLowRankData make_sparse_lowrank(const std::vector<index_t>& shape,
                                      index_t rank, double density,
                                      std::uint64_t seed) {
  const int n = static_cast<int>(shape.size());
  PARPP_CHECK(n >= 2, "make_sparse_lowrank: order must be >= 2");
  PARPP_CHECK(rank >= 1, "make_sparse_lowrank: rank must be positive");
  PARPP_CHECK(density > 0.0 && density <= 1.0,
              "make_sparse_lowrank: density must be in (0, 1]");
  for (index_t e : shape)
    PARPP_CHECK(e >= 1, "make_sparse_lowrank: extents must be positive");

  // Per-term support density: rank terms, each a cross product of per-mode
  // supports of density p, together land near the requested total density.
  const double p = std::pow(density / static_cast<double>(rank), 1.0 / n);
  Rng root(seed);

  SparseLowRankData out;
  out.tensor = tensor::CooTensor(shape);
  // supports[m][r]: the rows of mode m on which column r is nonzero.
  std::vector<std::vector<std::vector<index_t>>> supports(
      static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    Rng rng = root.split(static_cast<std::uint64_t>(m) + 1);
    const index_t s = shape[static_cast<std::size_t>(m)];
    const index_t k = std::clamp<index_t>(
        static_cast<index_t>(std::lround(p * static_cast<double>(s))), 1, s);
    la::Matrix a(s, rank);  // zero-initialized
    auto& mode_supports = supports[static_cast<std::size_t>(m)];
    mode_supports.reserve(static_cast<std::size_t>(rank));
    for (index_t r = 0; r < rank; ++r) {
      mode_supports.push_back(sample_without_replacement(s, k, rng));
      // Values bounded away from zero so rank-one terms never vanish.
      for (index_t i : mode_supports.back())
        a(i, r) = rng.uniform(0.25, 1.25);
    }
    out.factors.push_back(std::move(a));
  }

  emit_rank_one_terms(supports, out.factors, rank, out.tensor);
  out.tensor.coalesce();
  return out;
}

tensor::CooTensor make_sparse_random(const std::vector<index_t>& shape,
                                     double density, std::uint64_t seed) {
  const int n = static_cast<int>(shape.size());
  PARPP_CHECK(n >= 2, "make_sparse_random: order must be >= 2");
  PARPP_CHECK(density > 0.0 && density <= 1.0,
              "make_sparse_random: density must be in (0, 1]");
  tensor::CooTensor t(shape);
  double dense_size = 1.0;
  for (index_t e : shape) {
    PARPP_CHECK(e >= 1, "make_sparse_random: extents must be positive");
    dense_size *= static_cast<double>(e);
  }
  const index_t target = std::max<index_t>(
      1, static_cast<index_t>(std::llround(density * dense_size)));
  Rng rng(seed);
  t.reserve(target);
  std::vector<index_t> tuple(static_cast<std::size_t>(n));
  for (index_t e = 0; e < target; ++e) {
    for (int m = 0; m < n; ++m)
      tuple[static_cast<std::size_t>(m)] =
          rng.uniform_index(shape[static_cast<std::size_t>(m)]);
    t.push(tuple, rng.uniform());
  }
  t.coalesce();  // collisions merge; nnz may land slightly under target
  return t;
}

SparseLowRankData make_sparse_powerlaw(const std::vector<index_t>& shape,
                                       double density, double exponent,
                                       std::uint64_t seed,
                                       index_t exact_rank) {
  const int n = static_cast<int>(shape.size());
  PARPP_CHECK(n >= 2, "make_sparse_powerlaw: order must be >= 2");
  PARPP_CHECK(density > 0.0 && density <= 1.0,
              "make_sparse_powerlaw: density must be in (0, 1]");
  PARPP_CHECK(exponent >= 0.0,
              "make_sparse_powerlaw: exponent must be >= 0");
  PARPP_CHECK(exact_rank >= 0,
              "make_sparse_powerlaw: exact_rank must be >= 0");
  double dense_size = 1.0;
  for (index_t e : shape) {
    PARPP_CHECK(e >= 1, "make_sparse_powerlaw: extents must be positive");
    dense_size *= static_cast<double>(e);
  }

  std::vector<std::vector<double>> cdf(static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m)
    cdf[static_cast<std::size_t>(m)] =
        zipf_cdf(shape[static_cast<std::size_t>(m)], exponent);

  Rng root(seed);
  SparseLowRankData out;
  out.tensor = tensor::CooTensor(shape);

  if (exact_rank == 0) {
    // Unstructured: every coordinate of every entry is an independent Zipf
    // draw, giving each mode the requested slice skew.
    const index_t target = std::max<index_t>(
        1, static_cast<index_t>(std::llround(density * dense_size)));
    out.tensor.reserve(target);
    std::vector<index_t> tuple(static_cast<std::size_t>(n));
    for (index_t e = 0; e < target; ++e) {
      for (int m = 0; m < n; ++m)
        tuple[static_cast<std::size_t>(m)] =
            zipf_draw(cdf[static_cast<std::size_t>(m)], root);
      out.tensor.push(tuple, root.uniform());
    }
    out.tensor.coalesce();
    return out;
  }

  // Exactly low rank: the make_sparse_lowrank construction with
  // Zipf-weighted per-column supports, so the planted tensor is both
  // recoverable at exact_rank and head-heavy on every mode.
  const double p =
      std::pow(density / static_cast<double>(exact_rank), 1.0 / n);
  std::vector<std::vector<std::vector<index_t>>> supports(
      static_cast<std::size_t>(n));
  for (int m = 0; m < n; ++m) {
    Rng rng = root.split(static_cast<std::uint64_t>(m) + 1);
    const index_t s = shape[static_cast<std::size_t>(m)];
    const index_t k = std::clamp<index_t>(
        static_cast<index_t>(std::lround(p * static_cast<double>(s))), 1, s);
    la::Matrix a(s, exact_rank);  // zero-initialized
    auto& mode_supports = supports[static_cast<std::size_t>(m)];
    mode_supports.reserve(static_cast<std::size_t>(exact_rank));
    for (index_t r = 0; r < exact_rank; ++r) {
      mode_supports.push_back(
          zipf_sample_distinct(cdf[static_cast<std::size_t>(m)], k, rng));
      // Values bounded away from zero so rank-one terms never vanish.
      for (index_t i : mode_supports.back())
        a(i, r) = rng.uniform(0.25, 1.25);
    }
    out.factors.push_back(std::move(a));
  }
  emit_rank_one_terms(supports, out.factors, exact_rank, out.tensor);
  out.tensor.coalesce();
  return out;
}

}  // namespace parpp::data
